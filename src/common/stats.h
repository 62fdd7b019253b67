// Online statistics and fixed-bucket histograms used by the benchmark
// harnesses and the DC simulator's utilisation accounting.
#ifndef ZOMBIELAND_SRC_COMMON_STATS_H_
#define ZOMBIELAND_SRC_COMMON_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace zombie {

// Welford online mean/variance plus min/max.
class RunningStats {
 public:
  void Add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double variance() const { return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1); }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return sum_; }

  void Merge(const RunningStats& other);
  void Reset() { *this = RunningStats(); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// The p50/p99/p999 triple every latency column reports (see Percentiles::
// Summary); `count` carries the sample size so a 0/0/0 row from an empty
// tracker is distinguishable from a genuinely all-zero distribution.
struct PercentileSummary {
  std::size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

// Renders a summary as "p50 X / p99 Y / p999 Z" (or "no samples") — the one
// formatting path shared by the serving reports and ad-hoc bench notes.
std::string FormatPercentileSummary(const PercentileSummary& summary, int precision = 2);

// Stores samples and answers percentile queries (used for latency reporting).
//
// Interpolation rule: Percentile(p) sorts the samples and linearly
// interpolates between the two closest order statistics —
//   rank = p/100 * (n - 1);  lo = floor(rank);  frac = rank - lo;
//   result = samples[lo] * (1 - frac) + samples[lo + 1] * frac
// (the "linear between closest ranks" definition, i.e. numpy's default).
// Percentile(0) is the minimum, Percentile(100) the maximum; p is clamped
// into [0, 100].  The empty-sample case is DEFINED to return 0.0 — a neutral
// sentinel so an untouched latency column renders as 0 rather than NaN/null
// in reports; callers who must distinguish "no samples" check count() (or
// Summary().count).
class Percentiles {
 public:
  void Add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  std::size_t count() const { return samples_.size(); }

  // p in [0, 100].  Empty sample set returns 0.0 (see the class comment).
  double Percentile(double p);
  double Median() { return Percentile(50.0); }

  // The standard tail-latency triple, computed in one sort.  Empty sample
  // set returns {0, 0.0, 0.0, 0.0}.
  PercentileSummary Summary();

 private:
  std::vector<double> samples_;
  bool sorted_ = true;
};

}  // namespace zombie

#endif  // ZOMBIELAND_SRC_COMMON_STATS_H_
