#include "speed.hpp"

#include "stats.hpp"

#include <time.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <unordered_set>

namespace ssnbench {

namespace {

/// reference_cpu_s() on the nominal host. Only the scale of the scaled
/// metrics depends on it.
constexpr double kNominalS = 2.0e-3;

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

}  // namespace

double reference_cpu_s() {
  const double t0 = thread_cpu_s();
  std::mt19937_64 rng(12345);
  std::unordered_set<std::uint64_t> seen;
  double acc = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t x = rng();
    seen.insert(x & 0xffff);
    acc += std::sqrt(double(x >> 11)) * std::log1p(double(i));
  }
  const double t = thread_cpu_s() - t0;
  // Keep the work observable so the optimizer cannot drop it.
  volatile double sink = acc + double(seen.size());
  (void)sink;
  return t;
}

void HostSpeed::sample(int reps) {
  for (int i = 0; i < reps; ++i) samples_.push_back(reference_cpu_s());
}

double HostSpeed::factor() const {
  return samples_.empty() ? 1.0 : kNominalS / summarize(samples_).median;
}

}  // namespace ssnbench
