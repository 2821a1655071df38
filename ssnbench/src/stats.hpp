// Timing statistics for the benchmark, following one rule everywhere: a
// timing is reported as its median plus the highest percentile that has at
// least ten samples beyond it, together with the sample count.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ssnbench {

/// Median and supported tail of one sample set.
struct Summary {
  std::size_t count = 0;
  double median = 0.0;
  double tail = 0.0;      ///< value at `tail_pct`
  double tail_pct = 0.0;  ///< the percentile actually reported
};

/// Highest percentile <= `wanted` that leaves at least ten samples beyond
/// it in a set of `n` (never below the median).
double supported_percentile(std::size_t n, double wanted);

/// Nearest-rank percentile of an ascending-sorted, non-empty set.
double percentile_sorted(const std::vector<double>& sorted, double pct);

/// Summarize `values` (copied and sorted); the tail percentile is the
/// supported one at or below `wanted_tail`. An empty set gives count 0.
Summary summarize(std::vector<double> values, double wanted_tail = 99.0);

/// "median 12.3 / p99 45.6 (n=1000)" for the human-readable report.
std::string describe(const Summary& s, const char* unit);

}  // namespace ssnbench
