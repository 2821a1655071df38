#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ssnbench {

double supported_percentile(std::size_t n, double wanted) {
  if (n <= 20) return 50.0;
  const double limit = 100.0 * (1.0 - 10.0 / double(n));
  return std::max(50.0, std::min(wanted, limit));
}

double percentile_sorted(const std::vector<double>& sorted, double pct) {
  // The epsilon keeps an exact rank (e.g. 99 % of 1000) from rounding up.
  const double rank =
      std::ceil(pct / 100.0 * double(sorted.size()) - 1e-9);
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(sorted.size() - 1, std::size_t(rank) - 1);
  return sorted[index];
}

Summary summarize(std::vector<double> values, double wanted_tail) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.median = percentile_sorted(values, 50.0);
  s.tail_pct = supported_percentile(values.size(), wanted_tail);
  s.tail = percentile_sorted(values, s.tail_pct);
  return s;
}

std::string describe(const Summary& s, const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "median %.4g %s / p%.4g %.4g %s (n=%zu)",
                s.median, unit, s.tail_pct, s.tail, unit, s.count);
  return buf;
}

}  // namespace ssnbench
