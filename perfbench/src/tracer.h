// Benchmark-side tracing: spans recorded around the benchmark's own calls
// into the simulator's layers (nothing inside src/ is instrumented).
//
// A span has a name, a start, an end, the span that caused it (its parent on
// the same tracer) and an optional request key.  A layer's self time is its
// span duration minus the time its child spans cover.  Calls too frequent to
// keep one record each (a backend load per page fault) are Charge()d: they
// count toward their layer's totals and their parent's child time, but leave
// no record.  Records are kept in memory, capped, and written as Chrome
// trace-event JSON when the run ends.
//
// One Tracer per thread: a Tracer is not thread-safe.  Lanes of the sharded
// data plane each own one and share the run's epoch, so their records line
// up in one trace file.
#ifndef ZOMBIELAND_PERFBENCH_SRC_TRACER_H_
#define ZOMBIELAND_PERFBENCH_SRC_TRACER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct LayerTotals {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;  // wall time inside the layer's spans
  std::int64_t self_ns = 0;   // total_ns minus the time child spans cover

  void Add(const LayerTotals& other) {
    calls += other.calls;
    total_ns += other.total_ns;
    self_ns += other.self_ns;
  }
};

class Tracer {
 public:
  // `tid` names the thread in the trace file; `epoch` (NowNs() units) is the
  // zero of its timestamps; at most `max_records` spans are kept as records.
  Tracer(std::uint32_t tid, std::int64_t epoch, std::size_t max_records);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Begin(const char* name, std::uint64_t key = 0);
  void End();
  // A call timed by the caller (`ns` long) inside the innermost open span.
  void Charge(const char* name, std::int64_t ns);

  // Totals of every span and charge named `name` (zero if none).
  LayerTotals Totals(std::string_view name) const;

  std::size_t dropped_records() const { return dropped_; }

  // Appends this tracer's records as Chrome trace-event objects (comma
  // separated, `*first` tracks whether a separator is needed).
  void AppendChromeEvents(std::string* out, bool* first) const;

 private:
  struct OpenSpan {
    const char* name;
    std::uint64_t key;
    std::int64_t start;
    std::int64_t child_ns;
    std::int64_t record;  // index into records_, or -1 when not recorded
  };
  struct Record {
    const char* name;
    std::uint64_t key;
    std::int64_t start;
    std::int64_t dur;
    std::int64_t self;
    std::int64_t parent;  // index into records_, or -1
  };

  LayerTotals& TotalsFor(const char* name);

  std::uint32_t tid_;
  std::int64_t epoch_;
  std::size_t max_records_;
  std::size_t dropped_ = 0;
  std::vector<OpenSpan> stack_;
  std::vector<Record> records_;
  // Few distinct layer names, all string literals: a linear scan keyed by
  // pointer (then by content) beats a map on the charge hot path.
  std::vector<std::pair<const char*, LayerTotals>> totals_;
};

// RAII span; a null tracer makes it a no-op, so untraced runs pay nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint64_t key = 0) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Begin(name, key);
    }
  }
  ~Scope() {
    if (tracer_ != nullptr) {
      tracer_->End();
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

// Sums the totals of `name` over several tracers (the lanes of one run).
LayerTotals SumTotals(const std::vector<const Tracer*>& tracers, std::string_view name);

// Writes every tracer's records as one Chrome trace-event JSON document
// (opens in chrome://tracing or Perfetto).  Returns false on an I/O error.
bool WriteChromeTrace(const std::string& path, const std::vector<const Tracer*>& tracers);

}  // namespace perfbench

#endif  // ZOMBIELAND_PERFBENCH_SRC_TRACER_H_
