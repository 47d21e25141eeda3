#pragma once

// Latency summaries and per-class attempted/failed accounting, shared by
// every section of the benchmark.
//
// A summary reports the median and a tail. The tail is the highest
// percentile of a fixed ladder (p99.9 … p50) that still has at least ten
// samples beyond it, so it never rests on a handful of points; the chosen
// percentile and the sample count are printed beside it. Percentiles
// interpolate linearly between order statistics.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Median plus the best-supported tail of a sample set.
struct Summary {
  std::size_t n = 0;       ///< samples
  double p50 = 0;          ///< median
  double tail = 0;         ///< value at tail_pct
  double tail_pct = 0;     ///< the percentile reported as the tail (0..100)
  std::size_t beyond = 0;  ///< samples above the tail's rank
};

/// Linear-interpolated quantile q in [0, 1] of v (v need not be sorted).
double quantile(std::vector<double> v, double q);

/// Median and tail of the samples (all zero when empty).
Summary summarize(std::vector<double> v);

/// "p50=… p95=… (n=…, 12 beyond)" in the given unit.
std::string describe(const Summary& s, const char* unit);

/// Latencies and outcome counts of one request class.
struct ClassStats {
  long long attempted = 0;
  long long failed = 0;
  std::vector<double> latency_ms;
};

/// Per-class accounting for one run, keyed by class name.
class Accounting {
 public:
  /// Records one request of the class; `ok` false counts it as failed.
  void record(const std::string& klass, double latency_ms, bool ok);

  const ClassStats& get(const std::string& klass) const;
  long long attempted() const;
  long long failed() const;
  /// Every latency, all classes together.
  std::vector<double> all_latencies() const;
  const std::map<std::string, ClassStats>& classes() const { return classes_; }

 private:
  std::map<std::string, ClassStats> classes_;
};

}  // namespace perfbench
