// Steady-state allocation regression for the transient hot path. The
// engine's SolverWorkspace promises zero heap allocations per accepted
// step once the stamp plan, factorization and history buffers exist —
// doubling the number of steps must not meaningfully change the total
// allocation count (growth comes only from the recorded waveform, which
// both runs pre-reserve). A counting global operator new catches any
// per-step Matrix/Vector construction someone reintroduces.
//
// This file overrides the global allocator, so it must stay its own test
// binary (see tests/CMakeLists.txt) and must not be linked with sanitizer
// interceptors' replacement allocators in mind — under ASan the counts
// still move in lockstep, which is all the assertion needs.
#include "circuit/testbench.hpp"
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::size_t> g_allocs{0};
std::atomic<bool> g_counting{false};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// One delete frees; the other forms forward to it, as the array form of
// new forwards to the plain one. It stays out of line: inlined into a
// caller whose `new` was not, GCC 12 sees free() on an operator-new pointer
// and reports -Wmismatched-new-delete, though the pair is this file's own.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

using namespace ssnkit;

/// Allocations of a fixed-step transient with `steps` accepted points.
std::size_t count_transient_allocs(std::size_t steps) {
  circuit::SsnBenchSpec spec;
  spec.n_drivers = 4;
  // The per-driver oracle, so every step stamps four inverters.
  auto bench = circuit::make_ssn_testbench(spec, circuit::expanded_driver_groups(spec));

  sim::TransientOptions opts;
  opts.t_stop = 0.5e-9;
  opts.adaptive = false;  // fixed step isolates the per-step cost
  opts.dt_initial = opts.t_stop / double(steps);
  opts.dt_max = opts.dt_initial;

  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  const auto run = sim::run_transient_ex(bench.circuit, opts);
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_TRUE(run.ok());
  EXPECT_GE(run.result.point_count(), steps);
  return g_allocs.load(std::memory_order_relaxed);
}

TEST(AllocRegression, TransientStepsDoNotAllocate) {
  const std::size_t small = 200;
  const std::size_t large = 400;

  // Warm-up run absorbs one-time lazy initialization (gtest, locale,
  // element caches) so the two measured runs see identical fixed costs.
  (void)count_transient_allocs(small);

  const std::size_t a_small = count_transient_allocs(small);
  const std::size_t a_large = count_transient_allocs(large);

  // Everything per-run (workspace, pattern, factor, reserves) is identical;
  // the extra `large - small` accepted steps must contribute nothing. The
  // slack absorbs waveform-recording growth if a reserve is ever loosened,
  // while still failing loudly on a per-step allocation (which would add
  // hundreds).
  const std::size_t delta = a_large > a_small ? a_large - a_small : 0;
  EXPECT_LE(delta, 32u) << "per-run allocations: " << a_small << " -> "
                        << a_large << " when doubling accepted steps";
}

TEST(AllocRegression, SecondRunCostsNoMoreThanFirst) {
  // The workspace is per-call, so runs are independent; this guards against
  // accidental global-state growth (e.g. an append-only cache).
  const std::size_t first = count_transient_allocs(200);
  const std::size_t second = count_transient_allocs(200);
  EXPECT_LE(second, first + 8);
}

}  // namespace
