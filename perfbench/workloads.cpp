// The three workloads: circuits, preparation script and method columns.
// Everything reaches the library through its public entry points
// (benchmark_suite*, Network construction, script_a, run_resub,
// network_redundancy_removal, script_algebraic and its public steps).

#include <stdexcept>
#include <utility>

#include "bench.hpp"
#include "benchcir/suite.hpp"
#include "opt/extract.hpp"
#include "opt/full_simplify.hpp"
#include "opt/scripts.hpp"
#include "rar/network_rr.hpp"

namespace perfbench {

namespace {

using rarsub::NodeId;
using rarsub::ResubMethod;

// The large tier's syn_s9234 cut (benchmark_suite_large, ~6000 nodes).
constexpr int kLargeNodes = 6000;

std::vector<rarsub::BenchmarkEntry> suite_of(const std::string& workload) {
  if (workload == "tables") return rarsub::benchmark_suite();
  if (workload == "large") return rarsub::benchmark_suite_large(kLargeNodes);
  if (workload == "algebraic") return rarsub::benchmark_suite_small();
  throw std::invalid_argument("unknown workload: " + workload);
}

/// The same circuit with its primary inputs declared in another order
/// (a seeded Fisher-Yates shuffle on splitmix64, so a seed names the same
/// order under any standard library). Nodes, fanins and cubes keep their
/// order: shuffling those changes what the greedy sweeps do, and with it
/// the work measured (README.md, "Seeds").
Network with_shuffled_pis(const Network& src, std::uint64_t seed) {
  std::uint64_t x = seed;
  const auto next = [&x] {
    std::uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  };
  std::vector<NodeId> pis = src.pis();
  for (std::size_t i = pis.size(); i > 1; --i)
    std::swap(pis[i - 1], pis[next() % i]);

  Network out(src.name());
  std::vector<NodeId> map(static_cast<std::size_t>(src.num_nodes()),
                          rarsub::kNoNode);
  for (NodeId pi : pis)
    map[static_cast<std::size_t>(pi)] = out.add_pi(src.node_name(pi));
  for (NodeId id : src.topo_order()) {
    if (src.is_pi(id)) continue;
    std::vector<NodeId> fanins;
    for (NodeId fi : src.fanins(id))
      fanins.push_back(map[static_cast<std::size_t>(fi)]);
    map[static_cast<std::size_t>(id)] =
        out.add_node(src.node_name(id), std::move(fanins), src.func(id));
  }
  for (const rarsub::Output& po : src.pos())
    out.add_po(po.name, map[static_cast<std::size_t>(po.driver)]);
  return out;
}

std::vector<Circuit> circuits_of(const std::string& workload,
                                 std::uint64_t seed) {
  std::vector<Circuit> out;
  for (rarsub::BenchmarkEntry& e : suite_of(workload)) {
    // Only the synthetic stand-ins (suite.hpp: the `syn_` prefix) vary.
    if (seed == 0 || !e.name.starts_with("syn_")) {
      out.push_back({e.name, std::move(e.build)});
      continue;
    }
    std::uint64_t s = seed;
    for (unsigned char ch : e.name) s = (s ^ ch) * 0x100000001b3ULL;
    out.push_back({e.name, [build = std::move(e.build), s] {
                     return with_shuffled_pis(build(), s);
                   }});
  }
  return out;
}

// jobs = 1: the paper's single-threaded first-positive strategy.
rarsub::ResubTuning tuning() {
  rarsub::ResubTuning t;
  t.jobs = 1;
  return t;
}

const char* resub_span(ResubMethod m) {
  return m == ResubMethod::SisAlgebraic ? "resub.algebraic"
                                        : "division.substitute_network";
}

Column resub_column(ResubMethod m) {
  Column c;
  c.name = rarsub::method_name(m);
  c.method = m;
  c.run = [m](Network& net, Tracer& t, ReplayBase*) {
    SpanScope s(t, resub_span(m));
    rarsub::run_resub(net, m, tuning());
  };
  return c;
}

Column rr_column() {
  Column c;
  c.name = "rr";
  c.run = [](Network& net, Tracer& t, ReplayBase*) {
    SpanScope s(t, "rar.network_rr");
    rarsub::network_redundancy_removal(net, rarsub::NetworkRrOptions{});
  };
  return c;
}

template <typename F>
void step(Tracer& t, const char* name, F&& f) {
  SpanScope s(t, name);
  f();
}

// script_algebraic as one call untraced; traced, its public steps one by
// one (same order as src/opt/scripts.cpp) so each gets its own span.
// run_traced in driver.cpp checks both paths reach the same output
// digest. The replay ladder re-runs the attempts of the last resub step,
// on the network that step started from.
Column algebraic_column(ResubMethod m) {
  Column c;
  c.name = rarsub::method_name(m);
  c.method = m;
  c.run = [m](Network& net, Tracer& t, ReplayBase* base) {
    if (base == nullptr) {
      rarsub::script_algebraic(net, m, tuning());
      return;
    }
    const auto sweep = [&] { step(t, "network.sweep", [&] { net.sweep(); }); };
    const auto elim = [&](int k) {
      step(t, "opt.eliminate", [&] { rarsub::eliminate(net, k); });
    };
    const auto simplify = [&] {
      step(t, "opt.simplify", [&] { rarsub::simplify_network(net); });
    };
    const auto resub = [&] {
      step(t, resub_span(m), [&] { rarsub::run_resub(net, m, tuning()); });
    };
    sweep();
    elim(-1);
    simplify();
    elim(-1);
    sweep();
    elim(5);
    simplify();
    resub();
    step(t, "opt.gkx", [&] { rarsub::gkx(net); });
    resub();
    step(t, "opt.gcx", [&] { rarsub::gcx(net); });
    base->mark(net);
    resub();
    sweep();
    elim(-1);
    sweep();
    step(t, "opt.full_simplify", [&] { rarsub::full_simplify_network(net); });
    simplify();
  };
  return c;
}

constexpr ResubMethod kPaperMethods[] = {
    ResubMethod::SisAlgebraic, ResubMethod::Basic, ResubMethod::Extended,
    ResubMethod::ExtendedGdc};

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.circuits = circuits_of(name, seed);
  if (name == "algebraic") {
    // Table V: the flow itself prepares; only dead logic is swept first.
    w.prepare_name = "network.sweep";
    w.prepare = [](Network& net) { net.sweep(); };
    for (ResubMethod m : kPaperMethods) w.columns.push_back(algebraic_column(m));
    return w;
  }
  w.prepare_name = "opt.script_a";
  w.prepare = [](Network& net) { rarsub::script_a(net); };
  if (name == "large") {
    w.columns.push_back(rr_column());
    w.columns.push_back(resub_column(ResubMethod::Basic));
  } else {
    for (ResubMethod m : kPaperMethods) w.columns.push_back(resub_column(m));
  }
  return w;
}

}  // namespace perfbench
