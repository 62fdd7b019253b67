#include "src/common/stats.h"

namespace zombie {

void RunningStats::Add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Percentiles::Percentile(double p) {
  if (samples_.empty()) {
    return 0.0;  // defined sentinel for the empty-sample case (see stats.h)
  }
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank = clamped / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

PercentileSummary Percentiles::Summary() {
  PercentileSummary summary;
  summary.count = samples_.size();
  if (summary.count == 0) {
    return summary;
  }
  summary.p50 = Percentile(50.0);
  summary.p99 = Percentile(99.0);
  summary.p999 = Percentile(99.9);
  return summary;
}

}  // namespace zombie
