// perfbench_driver: runs one benchmark workload and prints its result as
// one JSON line on stdout (human-readable tables go to stderr).
//
//   perfbench_driver --workload tables|large|algebraic --seed N
//                    --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 measures the end-to-end metrics: set-up (generate, BLIF
// write + read, preparation script) repeated several times, then as many
// whole passes over every (column, circuit) cell as fit in S seconds (at
// least one). After the passes, each cell of the first pass is checked
// against its prepared input; repeated set-ups and later passes must
// reproduce the first one's digests.
//
// --trace 1 measures the per-layer metrics: one untraced and one traced
// pass (spans around every library call, obs::snapshot deltas and the
// flight ledger per cell), then the replay ladder. The spans are written
// to DIR/trace-<workload>-<seed>.json in Chrome trace-event format.
//
// Exit status: 0 when every check passed, 1 when one failed, 2 on a
// usage error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>

#include "bench.hpp"
#include "benchcir/suite.hpp"
#include "division/substitute.hpp"
#include "network/blif.hpp"
#include "obs/ledger.hpp"
#include "obs/memstat.hpp"
#include "obs/obs.hpp"
#include "opt/scripts.hpp"

namespace perfbench {

namespace {

namespace obs = rarsub::obs;

// Set-up is repeated until both minimums are met (or the cap), and its
// median reported.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 100;
constexpr double kMinSetupSeconds = 1.0;
constexpr int kMaxPasses = 50;
constexpr std::size_t kLedgerCapacity = 1u << 17;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

struct Cell {
  std::string column;
  std::string circuit;
  std::size_t index = 0;  ///< of the circuit in the workload
  double ms = 0.0;        ///< CPU time of the column's library calls
  int literals = 0;
  std::uint64_t digest = 0;
  std::optional<Network> result;  ///< kept until checked
  bool ok = true;
  bool bdd_checked = false;
  std::string message;
};

/// obs::snapshot deltas summed over cells: counters by name, timers as
/// "<name>.ns" / "<name>.calls".
using Deltas = std::map<std::string, double>;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------

struct Setup {
  std::vector<Network> prepared;
  double cpu_s = 0;  ///< CPU time of the set-up steps
  bool round_trip_ok = true;
};

/// Per circuit: generate, write_blif, read_blif, prepare. The flows start
/// from the generated network, as the repository's table benches do: the
/// read-back network has an extra buffer node for each primary output
/// named apart from its driver, which the preparation would collapse into
/// a different circuit. The read-back network must write back the same
/// BLIF text; that check is left out of the set-up time.
Setup setup(const Workload& w, Tracer& t) {
  Setup out;
  const auto timed = [&](const char* span, const std::string& circuit,
                         auto&& f) {
    SpanScope s(t, span, circuit);
    const std::int64_t t0 = cpu_now_ns();
    f();
    out.cpu_s += static_cast<double>(cpu_now_ns() - t0) / 1e9;
  };
  for (const Circuit& c : w.circuits) {
    Network net;
    std::string text;
    Network read_back;
    timed("benchcir.generate", c.name, [&] { net = c.build(); });
    timed("network.write_blif", c.name,
          [&] { text = rarsub::write_blif_string(net); });
    timed("network.read_blif", c.name,
          [&] { read_back = rarsub::read_blif_string(text); });
    if (rarsub::write_blif_string(read_back) != text) {
      std::fprintf(stderr, "%s: BLIF round trip changed the circuit\n",
                   c.name.c_str());
      out.round_trip_ok = false;
    }
    timed(w.prepare_name.c_str(), c.name, [&] { w.prepare(net); });
    out.prepared.push_back(std::move(net));
  }
  return out;
}

std::uint64_t fold(std::uint64_t h, std::uint64_t d) {
  return h * 0x100000001b3ULL ^ d;
}

std::uint64_t combined_digest(const std::vector<Network>& nets) {
  std::uint64_t h = 0;
  for (const Network& n : nets) h = fold(h, digest(n));
  return h;
}

void add_deltas(const obs::Snapshot& before, const obs::Snapshot& after,
                Deltas& out) {
  for (const obs::CounterSnap& c : after.counters)
    out[c.name] += static_cast<double>(c.value - before.counter(c.name));
  std::map<std::string, const obs::TimerSnap*> prev;
  for (const obs::TimerSnap& t : before.timers) prev[t.name] = &t;
  for (const obs::TimerSnap& t : after.timers) {
    const auto it = prev.find(t.name);
    const obs::TimerSnap* p = it == prev.end() ? nullptr : it->second;
    out[t.name + ".ns"] += static_cast<double>(t.total_ns - (p ? p->total_ns : 0));
    out[t.name + ".calls"] += static_cast<double>(t.calls - (p ? p->calls : 0));
  }
}

/// Runs one column on a copy of one prepared circuit; `keep` keeps the
/// result for check_cells. With an enabled tracer, also collects obs
/// deltas and the ledger's attempt pairs.
Cell run_cell(const Workload& w, const Column& col, std::size_t i,
              const Network& prepared, Tracer& t, bool keep, Deltas* deltas,
              std::vector<AttemptPairs>* attempts) {
  SpanScope cell_span(t, "cell", w.circuits[i].name, col.name);
  Cell c;
  c.column = col.name;
  c.circuit = w.circuits[i].name;
  c.index = i;
  try {
    Network net;
    {
      SpanScope s(t, "network.copy");
      net = prepared;
    }
    obs::Snapshot before;
    std::optional<ReplayBase> base;
    if (t.on()) {
      before = obs::snapshot();
      obs::ledger_begin_memory(kLedgerCapacity);
      base.emplace();
      base->mark(net);
      base->copy_ms = 0;
    }
    const std::int64_t t0 = cpu_now_ns();
    col.run(net, t, base ? &*base : nullptr);
    c.ms = static_cast<double>(cpu_now_ns() - t0) / 1e6 -
           (base ? base->copy_ms : 0.0);
    if (t.on()) {
      const std::vector<obs::Event> events = obs::ledger_events();
      obs::ledger_end();
      add_deltas(before, obs::snapshot(), *deltas);
      if (col.method && *col.method != rarsub::ResubMethod::SisAlgebraic) {
        std::set<std::pair<int, int>> seen;
        AttemptPairs a{i, &col, std::move(*base->net), {}};
        for (const obs::Event& e : events)
          if (e.kind == obs::EventKind::SubstituteAttempt &&
              e.seq >= base->ledger_seq &&
              seen.insert({e.node, e.divisor}).second)
            a.pairs.push_back({e.node, e.divisor});
        attempts->push_back(std::move(a));
      }
    }
    c.literals = net.factored_literals();
    c.digest = digest(net);
    if (keep) c.result = std::move(net);
  } catch (const std::exception& e) {
    obs::ledger_end();
    c.ok = false;
    c.message = std::string("exception: ") + e.what();
  }
  return c;
}

/// One pass, circuit by circuit and within a circuit column by column,
/// as the repository's table benches run. Each column's time is then
/// spread over the whole pass rather than measured in one stretch, so a
/// short burst of outside load cannot fall on one column alone.
/// `deltas`, when given, collects obs deltas per column name.
std::vector<Cell> run_pass(const Workload& w,
                           const std::vector<Network>& prepared, Tracer& t,
                           bool keep,
                           std::map<std::string, Deltas>* deltas = nullptr,
                           std::vector<AttemptPairs>* attempts = nullptr) {
  std::vector<Cell> cells;
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    SpanScope s(t, "circuit", w.circuits[i].name);
    for (const Column& col : w.columns) {
      Deltas* d = deltas != nullptr ? &(*deltas)[col.name] : nullptr;
      cells.push_back(run_cell(w, col, i, prepared[i], t, keep, d, attempts));
    }
  }
  return cells;
}

/// Checks every kept result against its prepared input, then drops it.
void check_cells(const std::vector<Network>& prepared, std::vector<Cell>& cells,
                 Tracer& t) {
  for (Cell& c : cells) {
    if (!c.result) continue;
    SpanScope s(t, "check", c.circuit, c.column);
    const Verdict v = verify_cell(prepared[c.index], *c.result, t);
    c.ok = v.ok();
    c.bdd_checked = v.bdd_checked;
    c.message = v.message;
    c.result.reset();
  }
}

bool same_outputs(const std::vector<Cell>& a, const std::vector<Cell>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].digest != b[i].digest || a[i].literals != b[i].literals)
      return false;
  return true;
}

double column_sum(const std::vector<Cell>& cells, const std::string& column,
                  double Cell::*field) {
  double s = 0;
  for (const Cell& c : cells)
    if (column.empty() || c.column == column) s += c.*field;
  return s;
}

int column_literals(const std::vector<Cell>& cells, const std::string& column) {
  int s = 0;
  for (const Cell& c : cells)
    if (column.empty() || c.column == column) s += c.literals;
  return s;
}

std::uint64_t cells_digest(const std::vector<Cell>& cells,
                           const std::string& column = "") {
  std::uint64_t h = 0;
  for (const Cell& c : cells)
    if (column.empty() || c.column == column) h = fold(h, c.digest);
  return h;
}

void print_cells(const Workload& w, const std::vector<Cell>& cells) {
  std::fprintf(stderr, "%-10s %-10s %10s %8s %-16s %s\n", "column", "circuit",
               "cpu_ms", "literals", "digest", "check");
  for (const Cell& c : cells)
    std::fprintf(stderr, "%-10s %-10s %10.2f %8d %-16s %s%s%s\n",
                 c.column.c_str(), c.circuit.c_str(), c.ms, c.literals,
                 hex(c.digest).c_str(), c.ok ? "ok" : "FAIL",
                 c.bdd_checked ? "+bdd" : "",
                 c.message.empty() ? "" : ("  " + c.message).c_str());
  std::fprintf(stderr, "%-10s %10s %10s %-16s\n", "column", "opt_s", "literals",
               "digest");
  for (const Column& col : w.columns)
    std::fprintf(stderr, "%-10s %10.3f %10d %-16s\n", col.name.c_str(),
                 column_sum(cells, col.name, &Cell::ms) / 1e3,
                 column_literals(cells, col.name),
                 hex(cells_digest(cells, col.name)).c_str());
}

/// The planted-failure self-test: substitute_network with the remainder
/// deliberately dropped must be caught by both checkers.
bool planted_failure_selftest() {
  Tracer off(false, "selftest");
  int cells = 0, failed = 0, equiv_caught = 0, bdd_caught = 0;
  for (const rarsub::BenchmarkEntry& e : rarsub::benchmark_suite_small()) {
    if (e.name != "alu4" && e.name != "syn_c432" && e.name != "syn_t481")
      continue;
    Network prepared = e.build();
    rarsub::script_a(prepared);
    Network net = prepared;
    rarsub::SubstituteOptions opts;
    opts.inject_skip_remainder = true;
    rarsub::substitute_network(net, opts);
    const Verdict v = verify_cell(prepared, net, off);
    ++cells;
    failed += v.ok() ? 0 : 1;
    equiv_caught += v.equiv_ok ? 0 : 1;
    bdd_caught += v.bdd_checked && !v.bdd_ok ? 1 : 0;
  }
  std::fprintf(stderr,
               "planted-failure self-test: failed_share %.3f (%d/%d cells; "
               "check_equivalence caught %d, BDD caught %d)\n",
               ratio(failed, cells), failed, cells, equiv_caught, bdd_caught);
  return equiv_caught > 0 && bdd_caught > 0;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics, std::uint64_t out_digest,
                  const std::vector<Cell>& cells) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}, \"output_digest\": \"%s\", \"cells\": [", hex(out_digest).c_str());
  for (std::size_t i = 0; i < cells.size(); ++i)
    std::printf("%s[\"%s\", \"%s\", %d, \"%s\"]", i == 0 ? "" : ", ",
                cells[i].column.c_str(), cells[i].circuit.c_str(),
                cells[i].literals, hex(cells[i].digest).c_str());
  std::printf("]}\n");
  std::fflush(stdout);
}

long count_failed(const std::vector<Cell>& cells) {
  return std::count_if(cells.begin(), cells.end(),
                       [](const Cell& c) { return !c.ok; });
}

// ---------------------------------------------------------------------------

int run_untraced(const Options& o, const Workload& w) {
  bool checks_ok = true;
  Tracer off(false, w.name);
  std::vector<double> setup_s;
  std::vector<Network> prepared;
  std::uint64_t prepared_digest = 0;
  double setup_total = 0;
  while (static_cast<int>(setup_s.size()) < kMinSetupReps ||
         (setup_total < kMinSetupSeconds &&
          static_cast<int>(setup_s.size()) < kMaxSetupReps)) {
    Setup su = setup(w, off);
    setup_s.push_back(su.cpu_s);
    setup_total += su.cpu_s;
    checks_ok = su.round_trip_ok && checks_ok;
    const std::uint64_t d = combined_digest(su.prepared);
    if (prepared.empty()) {
      prepared = std::move(su.prepared);
      prepared_digest = d;
    } else if (d != prepared_digest) {
      std::fprintf(stderr, "set-up is not deterministic: prepared digests differ\n");
      checks_ok = false;
    }
  }
  std::fprintf(stderr, "set-up: %zu repetitions, median %.4f s, prepared digest %s\n",
               setup_s.size(), median(setup_s), hex(prepared_digest).c_str());

  checks_ok = planted_failure_selftest() && checks_ok;

  // Whole passes, as many as fit in the run's seconds (at least one): a
  // pass starts only when the mean pass so far still fits.
  std::vector<std::vector<Cell>> passes;
  obs::Timer run_timer;
  do {
    obs::Timer pass_timer;
    passes.push_back(run_pass(w, prepared, off, passes.empty()));
    std::fprintf(stderr, "pass %zu: column CPU %.3f s, wall %.3f s\n",
                 passes.size(), column_sum(passes.back(), "", &Cell::ms) / 1e3,
                 pass_timer.elapsed_ms() / 1e3);
  } while (run_timer.elapsed_ms() / 1e3 *
                   static_cast<double>(passes.size() + 1) /
                   static_cast<double>(passes.size()) <=
               o.seconds &&
           static_cast<int>(passes.size()) < kMaxPasses);

  // Read before the checks, whose BDDs would otherwise set the peak.
  const double peak_rss_mb =
      static_cast<double>(obs::read_peak_rss_kb()) / 1024.0;
  // Later passes must reproduce the first pass's digests, so checking
  // the first pass's results checks them all.
  check_cells(prepared, passes.front(), off);
  long attempted = 0, failed = 0;
  for (const std::vector<Cell>& p : passes) {
    attempted += static_cast<long>(p.size());
    failed += count_failed(p);
    if (!same_outputs(p, passes.front())) {
      std::fprintf(stderr, "passes are not deterministic: output digests differ\n");
      checks_ok = false;
    }
  }
  const std::vector<Cell>& first = passes.front();
  print_cells(w, first);

  std::vector<double> opt_s, basic_s;
  for (const std::vector<Cell>& p : passes) {
    opt_s.push_back(column_sum(p, "", &Cell::ms) / 1e3);
    basic_s.push_back(column_sum(p, "basic", &Cell::ms) / 1e3);
  }
  const double failed_share = ratio(failed, attempted);
  std::fprintf(stderr, "%zu passes, failed_share %.4f (%ld/%ld cells)\n",
               passes.size(), failed_share, failed, attempted);

  const std::vector<Metric> metrics = {
      {"setup_s", "s", median(setup_s)},
      {"opt_s", "s", median(opt_s)},
      {"opt_s.basic", "s", median(basic_s)},
      {"literals", "count", static_cast<double>(column_literals(first, ""))},
      {"literals.basic", "count",
       static_cast<double>(column_literals(first, "basic"))},
      {"peak_rss_mb", "MB", peak_rss_mb},
  };
  const bool correct = checks_ok && failed == 0;
  print_result(correct, attempted, failed, metrics, cells_digest(first), first);
  return correct ? 0 : 1;
}

int run_traced(const Options& o, const Workload& w) {
  bool checks_ok = true;
  Tracer t(true, w.name);
  Tracer off(false, w.name);

  const obs::Snapshot before_setup = obs::snapshot();
  const Setup su = setup(w, t);
  checks_ok = su.round_trip_ok && checks_ok;
  const std::vector<Network>& prepared = su.prepared;
  Deltas setup_deltas;
  add_deltas(before_setup, obs::snapshot(), setup_deltas);

  // Untraced pass first: the base of trace_overhead and the reference
  // digests the traced pass (step-by-step on algebraic) must reproduce.
  const std::vector<Cell> plain = run_pass(w, prepared, off, false);
  std::map<std::string, Deltas> by_column;
  std::vector<AttemptPairs> attempts;
  std::vector<Cell> traced;
  {
    SpanScope s(t, "columns");
    traced = run_pass(w, prepared, t, true, &by_column, &attempts);
  }
  check_cells(prepared, traced, t);
  print_cells(w, traced);
  // Per-column counters on stderr; the metrics below sum the columns.
  Deltas d;
  std::fprintf(stderr, "%-10s %10s %10s %12s %12s %12s %12s\n", "column",
               "attempts", "commits", "attempt_ms", "region_rr_ms",
               "atpg.faults", "network_rr_ms");
  for (const Column& col : w.columns) {
    Deltas& c = by_column[col.name];
    std::fprintf(stderr, "%-10s %10.0f %10.0f %12.1f %12.1f %12.0f %12.1f\n",
                 col.name.c_str(), c["subst.attempts"], c["subst.commits"],
                 c["subst.attempt.ns"] / 1e6, c["division.region_rr.ns"] / 1e6,
                 c["atpg.faults"], c["network_rr.run.ns"] / 1e6);
    for (const auto& [name, v] : c) d[name] += v;
  }
  if (!same_outputs(plain, traced)) {
    std::fprintf(stderr, "traced pass reached different output digests\n");
    checks_ok = false;
  }
  const long failed = count_failed(plain) + count_failed(traced);
  const long attempted = static_cast<long>(plain.size() + traced.size());

  Metrics m;
  run_ladder(w, prepared, attempts, t, m);

  const auto timer_ms = [&d](const char* name) {
    return d[std::string(name) + ".ns"] / 1e6;
  };
  m["benchcir.generate_ms"] = t.total_ms("benchcir.generate");
  m["network.write_blif_ms"] = t.total_ms("network.write_blif");
  m["network.read_blif_ms"] = t.total_ms("network.read_blif");
  m["opt.script_a_ms"] = t.total_ms("opt.script_a");
  m["sop.espresso_ms"] = setup_deltas["espresso.lite.ns"] / 1e6;
  m["division.attempts"] = d["subst.attempts"];
  m["division.attempt_us"] =
      ratio(d["subst.attempt.ns"] / 1e3, d["subst.attempt.calls"]);
  m["division.commit_ratio"] = ratio(d["subst.commits"], d["subst.attempts"]);
  m["division.region_rr_ms"] = timer_ms("division.region_rr");
  m["division.vote_table_ms"] = timer_ms("division.vote_table");
  m["gatenet.view_patches"] = d["gateview.patches"];
  m["gatenet.full_rebuilds"] = d["gateview.full_rebuilds"];
  const double pruned = d["subst.pairs_pruned_sig"] +
                        d["subst.pairs_pruned_memo"] +
                        d["subst.pairs_pruned_cycle"];
  m["division.pairs_screened"] = d["subst.pairs_tried"] + pruned;
  m["division.prune_ratio"] = ratio(pruned, m["division.pairs_screened"]);
  m["network.copy_ms"] = t.total_ms("network.copy");
  m["atpg.faults"] = d["atpg.faults"];
  m["atpg.implications_per_fault"] =
      ratio(d["atpg.implications"], d["atpg.faults"]);
  m["atpg.untestable_ratio"] =
      ratio(d["atpg.faults.untestable"], d["atpg.faults"]);
  m["rar.rr_ms"] = timer_ms("network_rr.run");
  m["rar.wires_removed"] = d["network_rr.wires_removed"];
  m["rar.faults_per_removal"] =
      ratio(d["rr.onepass.faults"], d["network_rr.wires_removed"]);
  m["network.journal_events"] = d["journal.events"];
  m["opt.gcx_ms"] = t.total_ms("opt.gcx");
  m["opt.gkx_ms"] = t.total_ms("opt.gkx");
  m["opt.full_simplify_ms"] = t.total_ms("opt.full_simplify");
  m["resub.algebraic_ms"] = t.total_ms("resub.algebraic");
  m["verify.equiv_ms"] = t.total_ms("verify.equiv");
  m["verify.bdd_ms"] = t.total_ms("verify.bdd");
  m["trace_overhead"] = ratio(column_sum(traced, "", &Cell::ms),
                              column_sum(plain, "", &Cell::ms));

  // Self time per span name, largest first.
  std::map<std::string, std::int64_t> self_by_name;
  const std::vector<std::int64_t> self = t.self_ns();
  for (std::size_t i = 0; i < self.size(); ++i)
    self_by_name[t.spans()[i].name] += self[i];
  std::vector<std::pair<std::int64_t, std::string>> ranked;
  for (const auto& [name, ns] : self_by_name) ranked.push_back({ns, name});
  std::sort(ranked.rbegin(), ranked.rend());
  std::fprintf(stderr, "span self time:\n");
  for (const auto& [ns, name] : ranked)
    std::fprintf(stderr, "  %-30s %12.3f ms\n", name.c_str(),
                 static_cast<double>(ns) / 1e6);

  const std::string path =
      o.out_dir + "/trace-" + w.name + "-" + std::to_string(o.seed) + ".json";
  if (!t.write_chrome(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    checks_ok = false;
  } else {
    std::fprintf(stderr, "trace written to %s (%zu spans)\n", path.c_str(),
                 t.spans().size());
  }

  std::vector<Metric> metrics;
  for (const auto& [name, value] : m) {
    std::string unit = "count";
    if (name.ends_with("_ms")) unit = "ms";
    else if (name.ends_with("_us")) unit = "us";
    else if (name.ends_with("ratio") || name == "trace_overhead") unit = "ratio";
    metrics.push_back({name, unit, value});
  }
  const bool correct = checks_ok && failed == 0;
  print_result(correct, attempted, failed, metrics, cells_digest(plain), plain);
  return correct ? 0 : 1;
}

bool parse(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o->workload = v;
    else if (k == "--seed") o->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") o->seconds = std::atof(v.c_str());
    else if (k == "--trace") o->trace = v == "1";
    else if (k == "--out") o->out_dir = v;
    else return false;
  }
  return argc % 2 == 1 && !o->workload.empty();
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  if (!parse(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: %s --workload tables|large|algebraic --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\n",
                 argv[0]);
    return 2;
  }
  Workload w;
  try {
    w = make_workload(o.workload, o.seed);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  return o.trace ? run_traced(o, w) : run_untraced(o, w);
}
