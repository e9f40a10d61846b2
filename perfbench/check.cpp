// Per-cell output checks: the BLIF digest, check_equivalence against the
// prepared input, and an exact BDD comparison where the circuit fits.

#include <cstdio>
#include <map>
#include <optional>

#include "bdd/bdd.hpp"
#include "bench.hpp"
#include "network/blif.hpp"
#include "verify/equivalence.hpp"

namespace perfbench {

namespace {

using rarsub::BddManager;
using rarsub::BddRef;

// BDD budget: a node cap (the manager keeps every node it made). The
// check is skipped, not failed, for a circuit whose BDDs outgrow it.
constexpr std::size_t kBddMaxNodes = 1u << 21;

/// PO name -> BDD over the shared PI variables, or nullopt over budget.
std::optional<std::map<std::string, BddRef>> po_bdds(
    const Network& net, BddManager& mgr,
    const std::map<std::string, int>& var_of) {
  std::vector<BddRef> node_bdd(static_cast<std::size_t>(net.num_nodes()),
                               mgr.zero());
  for (rarsub::NodeId pi : net.pis())
    node_bdd[static_cast<std::size_t>(pi)] =
        mgr.var(var_of.at(std::string(net.node_name(pi))));
  for (rarsub::NodeId id : net.topo_order()) {
    const rarsub::Sop& f = net.func(id);
    const auto fanins = net.fanins(id);
    BddRef sum = mgr.zero();
    for (const rarsub::Cube& c : f.cubes()) {
      BddRef prod = mgr.one();
      for (int v = 0; v < f.num_vars(); ++v) {
        const rarsub::Lit l = c.lit(v);
        if (l == rarsub::Lit::Absent) continue;
        const BddRef x = node_bdd[static_cast<std::size_t>(
            fanins[static_cast<std::size_t>(v)])];
        prod = mgr.bdd_and(prod, l == rarsub::Lit::Pos ? x : mgr.bdd_not(x));
      }
      sum = mgr.bdd_or(sum, prod);
    }
    node_bdd[static_cast<std::size_t>(id)] = sum;
    if (mgr.node_count() > kBddMaxNodes) return std::nullopt;
  }
  std::map<std::string, BddRef> out;
  for (const rarsub::Output& po : net.pos())
    out[po.name] = node_bdd[static_cast<std::size_t>(po.driver)];
  return out;
}

/// PI name -> BDD variable, in the order a depth-first walk from a's
/// outputs first reaches them, then the PIs it does not reach. The order
/// does not depend on the order the PIs are declared in, so the check
/// costs the same at every seed.
std::map<std::string, int> variable_order(const Network& a, const Network& b) {
  std::map<std::string, int> var_of;
  const auto add = [&](const Network& n, rarsub::NodeId pi) {
    var_of.emplace(std::string(n.node_name(pi)), static_cast<int>(var_of.size()));
  };
  std::vector<char> seen(static_cast<std::size_t>(a.num_nodes()), 0);
  std::vector<std::pair<rarsub::NodeId, std::size_t>> stack;
  for (const rarsub::Output& po : a.pos()) {
    if (seen[static_cast<std::size_t>(po.driver)]) continue;
    seen[static_cast<std::size_t>(po.driver)] = 1;
    stack.push_back({po.driver, 0});
    while (!stack.empty()) {
      auto& [id, next] = stack.back();
      const auto fanins = a.fanins(id);
      if (a.is_pi(id)) {
        add(a, id);
        stack.pop_back();
      } else if (next < fanins.size()) {
        const rarsub::NodeId fi = fanins[next++];
        if (!seen[static_cast<std::size_t>(fi)]) {
          seen[static_cast<std::size_t>(fi)] = 1;
          stack.push_back({fi, 0});
        }
      } else {
        stack.pop_back();
      }
    }
  }
  for (const Network* n : {&a, &b})
    for (rarsub::NodeId pi : n->pis()) add(*n, pi);
  return var_of;
}

/// Exact comparison; nullopt when over budget, else the mismatch message
/// ("" when equivalent).
std::optional<std::string> bdd_compare(const Network& a, const Network& b) {
  const std::map<std::string, int> var_of = variable_order(a, b);
  BddManager mgr(static_cast<int>(var_of.size()));
  const auto fa = po_bdds(a, mgr, var_of);
  if (!fa) return std::nullopt;
  const auto fb = po_bdds(b, mgr, var_of);
  if (!fb) return std::nullopt;
  for (const auto& [name, ref] : *fa) {
    const auto it = fb->find(name);
    if (it == fb->end()) return "BDD check: output " + name + " missing";
    if (it->second != ref) return "BDD check: output " + name + " differs";
  }
  return std::string();
}

}  // namespace

std::uint64_t digest(const Network& net) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char ch : rarsub::write_blif_string(net)) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

Verdict verify_cell(const Network& prepared, const Network& result,
                    Tracer& tracer) {
  Verdict v;
  {
    SpanScope s(tracer, "verify.equiv");
    const rarsub::EquivalenceResult eq =
        rarsub::check_equivalence(prepared, result);
    if (!eq.equivalent) {
      v.equiv_ok = false;
      v.message = "check_equivalence: " + eq.message;
    }
  }
  SpanScope s(tracer, "verify.bdd");
  if (const auto bdd = bdd_compare(prepared, result)) {
    v.bdd_checked = true;
    if (!bdd->empty()) {
      v.bdd_ok = false;
      if (!v.message.empty()) v.message += "; ";
      v.message += *bdd;
    }
  }
  return v;
}

}  // namespace perfbench
