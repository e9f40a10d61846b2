#pragma once
// Shared declarations of the benchmark driver: workload definitions, the
// in-memory span recorder, the per-cell output checks and the replay
// ladder. See README.md in this directory for what each workload and
// metric means.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "network/network.hpp"
#include "opt/scripts.hpp"

namespace perfbench {

using rarsub::Network;

// ---------------------------------------------------------------------------
// Span recorder: spans are kept in memory and written out at exit in the
// Chrome trace-event format that src/obs writes (`{"traceEvents":[...]}`,
// complete "X" events). A disabled recorder makes every call a no-op.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::string circuit;
  std::string column;
};

class Tracer {
 public:
  Tracer(bool on, std::string workload);
  bool on() const { return on_; }
  /// Opens a span nested in the innermost open one; -1 when off.
  int begin(const char* name, const std::string& circuit = "",
            const std::string& column = "");
  void end(int id);
  const std::vector<Span>& spans() const { return spans_; }
  /// Span duration minus the part covered by its direct children.
  std::vector<std::int64_t> self_ns() const;
  /// Summed duration of every span with this name, in ms.
  double total_ms(const std::string& name) const;
  bool write_chrome(const std::string& path) const;

 private:
  bool on_;
  std::string workload_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class SpanScope {
 public:
  SpanScope(Tracer& t, const char* name, const std::string& circuit = "",
            const std::string& column = "")
      : t_(t), id_(t.begin(name, circuit, column)) {}
  ~SpanScope() { t_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Process CPU time in ns. The end-to-end times are CPU times of this
/// single-threaded process (README.md, "Clock").
std::int64_t cpu_now_ns();

/// Traced runs: a copy of the network that the flight ledger's following
/// attempt events refer to, for the replay ladder. The CPU time spent on
/// the copy is kept apart, so the cell can leave it out of the column time.
struct ReplayBase {
  std::optional<Network> net;
  std::uint64_t ledger_seq = 0;
  double copy_ms = 0;
  void mark(const Network& n);
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Circuit {
  std::string name;
  std::function<Network()> build;
};

struct Column {
  std::string name;
  /// The resubstitution method the column runs; unset for `rr`.
  std::optional<rarsub::ResubMethod> method;
  /// Runs the column on a copy of the prepared circuit. Traced (`base`
  /// not null), it records a span around each library call it makes, and
  /// a column that changes the network before its last resub step marks
  /// `base` there.
  std::function<void(Network&, Tracer&, ReplayBase*)> run;
};

struct Workload {
  std::string name;
  std::vector<Circuit> circuits;
  std::string prepare_name;  ///< span name of the preparation script
  std::function<void(Network&)> prepare;
  std::vector<Column> columns;
};

/// Builds a workload; `seed` varies only the synthetic circuits (their
/// primary-input declaration order) and 0 reproduces the suite's own
/// circuits. Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

/// FNV-1a of the network's BLIF text.
std::uint64_t digest(const Network& net);
std::string hex(std::uint64_t v);

struct Verdict {
  bool equiv_ok = true;      ///< check_equivalence agreed
  bool bdd_checked = false;  ///< the exact BDD check fit and ran
  bool bdd_ok = true;
  std::string message;
  bool ok() const { return equiv_ok && bdd_ok; }
};

/// check_equivalence against the prepared input, plus an exact BDD
/// comparison where the circuit fits the BDD budget.
Verdict verify_cell(const Network& prepared, const Network& result,
                    Tracer& tracer);

// ---------------------------------------------------------------------------
// Replay ladder
// ---------------------------------------------------------------------------

/// (f, d) node pairs a column's flight ledger recorded as attempts, and
/// the network they refer to.
struct AttemptPairs {
  std::size_t circuit = 0;
  const Column* column = nullptr;
  Network base;
  std::vector<std::pair<int, int>> pairs;
};

using Metrics = std::map<std::string, double>;

/// Times layer calls on inputs taken from the prepared circuits and the
/// recorded attempt pairs; adds the ladder's per-layer metrics to `out`
/// and prints a per-rung summary (with checksums) to stderr.
void run_ladder(const Workload& w, const std::vector<Network>& prepared,
                const std::vector<AttemptPairs>& attempts, Tracer& tracer,
                Metrics& out);

}  // namespace perfbench
