#include "perfbench/src/tracer.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace perfbench {

Tracer::Tracer(std::uint32_t tid, std::int64_t epoch, std::size_t max_records)
    : tid_(tid), epoch_(epoch), max_records_(max_records) {
  records_.reserve(max_records_);
}

LayerTotals& Tracer::TotalsFor(const char* name) {
  for (auto& [key, totals] : totals_) {
    if (key == name || std::strcmp(key, name) == 0) {
      return totals;
    }
  }
  totals_.emplace_back(name, LayerTotals{});
  return totals_.back().second;
}

void Tracer::Begin(const char* name, std::uint64_t key) {
  const std::int64_t now = NowNs();
  std::int64_t record = -1;
  if (records_.size() < max_records_) {
    record = static_cast<std::int64_t>(records_.size());
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back().record;
    records_.push_back(Record{name, key, now - epoch_, 0, 0, parent});
  } else {
    ++dropped_;
  }
  stack_.push_back(OpenSpan{name, key, now, 0, record});
}

void Tracer::End() {
  const std::int64_t now = NowNs();
  const OpenSpan span = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = now - span.start;
  const std::int64_t self = dur - span.child_ns;
  LayerTotals& totals = TotalsFor(span.name);
  ++totals.calls;
  totals.total_ns += dur;
  totals.self_ns += self;
  if (span.record >= 0) {
    Record& rec = records_[static_cast<std::size_t>(span.record)];
    rec.dur = dur;
    rec.self = self;
  }
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
  }
}

void Tracer::Charge(const char* name, std::int64_t ns) {
  LayerTotals& totals = TotalsFor(name);
  ++totals.calls;
  totals.total_ns += ns;
  totals.self_ns += ns;
  if (!stack_.empty()) {
    stack_.back().child_ns += ns;
  }
}

LayerTotals Tracer::Totals(std::string_view name) const {
  LayerTotals sum;
  for (const auto& [key, totals] : totals_) {
    if (name == key) {
      sum.Add(totals);
    }
  }
  return sum;
}

void Tracer::AppendChromeEvents(std::string* out, bool* first) const {
  char buf[384];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    // Chrome trace timestamps are microseconds; keep the ns digits.
    const int n = std::snprintf(
        buf, sizeof(buf),
        "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%" PRIu32
        ",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%" PRId64
        ",\"self_us\":%.3f,\"key\":%" PRIu64 "}}",
        *first ? "" : ",\n", r.name, tid_, static_cast<double>(r.start) / 1e3,
        static_cast<double>(r.dur) / 1e3, i, r.parent, static_cast<double>(r.self) / 1e3, r.key);
    out->append(buf, static_cast<std::size_t>(n));
    *first = false;
  }
}

LayerTotals SumTotals(const std::vector<const Tracer*>& tracers, std::string_view name) {
  LayerTotals sum;
  for (const Tracer* tracer : tracers) {
    sum.Add(tracer->Totals(name));
  }
  return sum;
}

bool WriteChromeTrace(const std::string& path, const std::vector<const Tracer*>& tracers) {
  std::string doc = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  std::size_t dropped = 0;
  for (const Tracer* tracer : tracers) {
    tracer->AppendChromeEvents(&doc, &first);
    dropped += tracer->dropped_records();
  }
  doc += "\n],\"otherData\":{\"dropped_records\":" + std::to_string(dropped) + "}}\n";
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) {
    return false;
  }
  const bool wrote = std::fwrite(doc.data(), 1, doc.size(), out) == doc.size();
  return std::fclose(out) == 0 && wrote;
}

}  // namespace perfbench
