// The replay ladder of a traced run: times single layer calls on inputs
// taken from the workload itself — every prepared node cover, the (f, d)
// pairs the columns' flight ledgers recorded as attempts (on the network
// they were attempted on), and the gate nets of the prepared circuits.
// Each rung prints a checksum of its outputs so two builds can be
// compared rung by rung.

#include <algorithm>
#include <cstdio>

#include "atpg/fault.hpp"
#include "bench.hpp"
#include "division/division.hpp"
#include "division/substitute.hpp"
#include "gatenet/build.hpp"
#include "network/complement_cache.hpp"
#include "network/simulate.hpp"
#include "obs/obs.hpp"
#include "sop/algdiv.hpp"
#include "sop/factor.hpp"

namespace perfbench {

namespace {

using rarsub::NodeId;
using rarsub::Sop;

// Caps that keep the ladder within a few seconds per workload: pairs are
// taken with an even stride over each column's distinct recorded
// attempts, faults with an even stride over each gate net's wires.
constexpr std::size_t kMaxPairsPerCell = 48;
constexpr std::size_t kMaxFaultsPerCircuit = 1500;
constexpr int kSimulateRounds = 64;
constexpr int kGatenetBuilds = 5;
// Substitution's own guard on the common variable space.
constexpr int kMaxCommonVars = 48;

/// Accumulates calls and time of one rung.
struct Rung {
  long calls = 0;
  std::int64_t ns = 0;
  long checksum = 0;
  template <typename F>
  auto time(F&& f) {
    const std::int64_t t0 = rarsub::obs::now_ns();
    auto r = f();
    ns += rarsub::obs::now_ns() - t0;
    ++calls;
    return r;
  }
  double mean_us() const {
    return calls > 0 ? static_cast<double>(ns) / 1e3 / static_cast<double>(calls)
                     : 0.0;
  }
  double total_ms() const { return static_cast<double>(ns) / 1e6; }
};

void print_rung(const char* name, const Rung& r) {
  std::fprintf(stderr, "  ladder %-28s calls %8ld  total %10.3f ms  mean %9.3f us  checksum %ld\n",
               name, r.calls, r.total_ms(), r.mean_us(), r.checksum);
}

std::vector<NodeId> internal_nodes(const Network& net) {
  std::vector<NodeId> out;
  for (NodeId id : net.topo_order())
    if (!net.is_pi(id)) out.push_back(id);
  return out;
}

/// f and d re-expressed over the union of their fanins, in the order
/// substitution uses: f's fanins, then d's fanins that f lacks.
bool common_space(const Network& net, NodeId f, NodeId d, Sop* fs, Sop* ds) {
  std::vector<NodeId> vars(net.fanins(f).begin(), net.fanins(f).end());
  std::vector<int> dmap;
  for (NodeId x : net.fanins(d)) {
    const auto it = std::find(vars.begin(), vars.end(), x);
    dmap.push_back(static_cast<int>(it - vars.begin()));
    if (it == vars.end()) vars.push_back(x);
  }
  const int n = static_cast<int>(vars.size());
  if (n > kMaxCommonVars) return false;
  std::vector<int> fmap(net.fanins(f).size());
  for (std::size_t i = 0; i < fmap.size(); ++i) fmap[i] = static_cast<int>(i);
  *fs = net.func(f).remap(n, fmap);
  *ds = net.func(d).remap(n, dmap);
  return !fs->empty() && !ds->empty();
}

rarsub::SubstMethod subst_method(rarsub::ResubMethod m) {
  switch (m) {
    case rarsub::ResubMethod::Extended: return rarsub::SubstMethod::Extended;
    case rarsub::ResubMethod::ExtendedGdc: return rarsub::SubstMethod::ExtendedGdc;
    default: return rarsub::SubstMethod::Basic;
  }
}

bool replayable(const Network& net, NodeId f, NodeId d) {
  const auto ok = [&](NodeId x) {
    return x >= 0 && x < net.num_nodes() && net.alive(x) && !net.is_pi(x);
  };
  return f != d && ok(f) && ok(d);
}

std::vector<std::pair<int, int>> stride_sample(
    std::vector<std::pair<int, int>> pairs, std::size_t cap) {
  if (pairs.size() <= cap) return pairs;
  std::vector<std::pair<int, int>> out;
  for (std::size_t i = 0; i < cap; ++i)
    out.push_back(pairs[i * pairs.size() / cap]);
  return out;
}

}  // namespace

void run_ladder(const Workload& w, const std::vector<Network>& prepared,
                const std::vector<AttemptPairs>& attempts, Tracer& tracer,
                Metrics& out) {
  SpanScope ladder(tracer, "ladder");

  // L1: complement and quick-factor on every prepared node cover.
  Rung comp, fact;
  long max_cubes = 0;
  std::vector<std::pair<std::int64_t, std::string>> comp_by_circuit;
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    const Network& net = prepared[i];
    const std::int64_t before = comp.ns;
    {
      SpanScope s(tracer, "sop.complement", w.circuits[i].name);
      for (NodeId id : internal_nodes(net)) {
        const Sop c = comp.time([&] { return net.func(id).complement(); });
        comp.checksum += c.num_cubes();
        max_cubes = std::max<long>(max_cubes, c.num_cubes());
      }
    }
    comp_by_circuit.emplace_back(comp.ns - before, w.circuits[i].name);
    SpanScope s(tracer, "sop.quick_factor", w.circuits[i].name);
    for (NodeId id : internal_nodes(net))
      fact.checksum +=
          fact.time([&] { return rarsub::quick_factor(net.func(id)); })
              ->literal_count();
  }
  print_rung("sop.complement", comp);
  std::sort(comp_by_circuit.rbegin(), comp_by_circuit.rend());
  for (std::size_t k = 0; k < std::min<std::size_t>(3, comp_by_circuit.size()); ++k)
    std::fprintf(stderr, "    complement share %-12s %5.1f %%\n",
                 comp_by_circuit[k].second.c_str(),
                 comp.ns > 0 ? 100.0 * static_cast<double>(comp_by_circuit[k].first) /
                                   static_cast<double>(comp.ns)
                             : 0.0);
  print_rung("sop.quick_factor", fact);
  out["sop.complement_calls"] = static_cast<double>(comp.calls);
  out["sop.complement_us"] = comp.mean_us();
  out["sop.complement_ms"] = comp.total_ms();
  out["sop.complement_max_cubes"] = static_cast<double>(max_cubes);
  out["sop.factor_calls"] = static_cast<double>(fact.calls);
  out["sop.factor_us"] = fact.mean_us();

  // L3: one division per method on the recorded attempt pairs, and the
  // whole attempt (try_substitution without commit) with the column's
  // method.
  Rung weak, basic, ext, attempt;
  for (const AttemptPairs& a : attempts) {
    Network net = a.base;
    rarsub::ComplementCache comps;
    rarsub::SubstituteOptions opts;
    opts.method = subst_method(*a.column->method);
    SpanScope s(tracer, "division.replay", w.circuits[a.circuit].name,
                a.column->name);
    for (const auto& [f, d] : stride_sample(a.pairs, kMaxPairsPerCell)) {
      Sop fs, ds;
      if (!replayable(net, f, d) || !common_space(net, f, d, &fs, &ds)) continue;
      weak.checksum +=
          weak.time([&] { return rarsub::weak_divide(fs, ds); }).quotient.num_cubes();
      basic.checksum += basic.time([&] {
        return rarsub::basic_boolean_divide(fs, ds);
      }).quotient.num_cubes();
      ext.checksum += ext.time([&] {
        return rarsub::extended_boolean_divide(fs, ds);
      }).quotient.num_cubes();
      attempt.checksum += attempt.time([&] {
        return rarsub::try_substitution(net, f, d, opts, false, &comps);
      }).value_or(-1);
    }
  }
  print_rung("sop.weak_divide", weak);
  print_rung("division.basic_divide", basic);
  print_rung("division.extended_divide", ext);
  print_rung("division.try_substitution", attempt);
  out["division.replay_pairs"] = static_cast<double>(weak.calls);
  out["sop.weak_divide_us"] = weak.mean_us();
  out["division.basic_divide_us"] = basic.mean_us();
  out["division.extended_divide_us"] = ext.mean_us();
  out["division.try_substitution_us"] = attempt.mean_us();

  // Network layer: 64-pattern simulation; L2: gate-net build and single
  // fault analyses over its wires.
  Rung sim, build, fault;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    const Network& net = prepared[i];
    const std::string& name = w.circuits[i].name;
    {
      SpanScope s(tracer, "network.simulate64", name);
      for (int r = 0; r < kSimulateRounds; ++r) {
        std::vector<std::uint64_t> words(net.pis().size());
        for (std::uint64_t& word : words) word = next();
        const auto v = sim.time([&] { return rarsub::simulate64(net, words); });
        sim.checksum += static_cast<long>(__builtin_popcountll(v.empty() ? 0 : v.back()));
      }
    }
    rarsub::GateNetMap map;
    rarsub::GateNet gn;
    {
      SpanScope s(tracer, "gatenet.build", name);
      for (int r = 0; r < kGatenetBuilds; ++r)
        gn = build.time([&] { return rarsub::build_gatenet(net, map); });
    }
    build.checksum += gn.num_gates();
    std::vector<rarsub::WireRef> wires;
    for (int g = 0; g < gn.num_gates(); ++g) {
      const rarsub::Gate& gate = gn.gate(g);
      if (gate.free || (gate.type != rarsub::GateType::And &&
                        gate.type != rarsub::GateType::Or))
        continue;
      for (int p = 0; p < static_cast<int>(gate.fanins.size()); ++p)
        wires.push_back({g, p});
    }
    const std::size_t n = std::min(wires.size(), kMaxFaultsPerCircuit);
    SpanScope s(tracer, "atpg.analyze_fault", name);
    for (std::size_t k = 0; k < n; ++k) {
      const rarsub::WireRef wr = wires[k * wires.size() / n];
      const bool sv = rarsub::removal_stuck_value(gn.gate(wr.gate).type);
      fault.checksum +=
          fault.time([&] { return rarsub::analyze_fault(gn, wr, sv); }).untestable;
    }
  }
  print_rung("network.simulate64", sim);
  print_rung("gatenet.build", build);
  print_rung("atpg.analyze_fault", fault);
  out["network.simulate64_ms"] = sim.total_ms();
  out["gatenet.build_ms"] = build.total_ms() / kGatenetBuilds;
  out["atpg.fault_us"] = fault.mean_us();
}

}  // namespace perfbench
