// In-memory span recorder, written out once at the end of a traced run;
// the process CPU clock; the replay base of a traced cell.

#include <cstdio>
#include <ctime>
#include <utility>

#include "bench.hpp"
#include "obs/ledger.hpp"
#include "obs/obs.hpp"

namespace perfbench {

namespace {

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer::Tracer(bool on, std::string workload)
    : on_(on), workload_(std::move(workload)) {}

int Tracer::begin(const char* name, const std::string& circuit,
                  const std::string& column) {
  if (!on_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  // Spans inherit the circuit/column ids of the span they nest in.
  s.circuit = circuit.empty() && s.parent >= 0
                  ? spans_[static_cast<std::size_t>(s.parent)].circuit
                  : circuit;
  s.column = column.empty() && s.parent >= 0
                 ? spans_[static_cast<std::size_t>(s.parent)].column
                 : column;
  s.start_ns = rarsub::obs::now_ns();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = rarsub::obs::now_ns();
  open_.pop_back();
}

std::vector<std::int64_t> Tracer::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  // Children close inside their parent, so subtracting each child's full
  // duration from its direct parent leaves the parent's uncovered time.
  for (const Span& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
  return self;
}

double Tracer::total_ms(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_)
    if (s.name == name) ns += s.end_ns - s.start_ns;
  return static_cast<double>(ns) / 1e6;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  const std::vector<std::int64_t> self = self_ns();
  std::fputs("{\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"pid\":1,\"tid\":1,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"workload\":\"%s\",\"circuit\":\"%s\",\"column\":\"%s\","
                 "\"self_us\":%.3f}}",
                 i == 0 ? "" : ",", escape(s.name).c_str(),
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 escape(workload_).c_str(), escape(s.circuit).c_str(),
                 escape(s.column).c_str(), static_cast<double>(self[i]) / 1e3);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

std::int64_t cpu_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void ReplayBase::mark(const Network& n) {
  const std::int64_t t0 = cpu_now_ns();
  net = n;
  ledger_seq = rarsub::obs::ledger_emitted();
  copy_ms += static_cast<double>(cpu_now_ns() - t0) / 1e6;
}

}  // namespace perfbench
