// Performance microbenchmarks (google-benchmark): the cost profile that
// makes the paper's closed forms attractive — a Table 1 evaluation is
// nanoseconds while a single transient simulation is milliseconds — plus
// the solver hot-path suite (sparse stamping vs the old dense assembly,
// transient solves at several sizes, Monte Carlo batches at several thread
// counts). scripts/bench.sh runs this binary and emits BENCH_perf.json.
#include "analysis/calibrate.hpp"
#include "analysis/measure.hpp"
#include "analysis/montecarlo.hpp"
#include "core/baselines.hpp"
#include "core/l_only_model.hpp"
#include "core/lc_model.hpp"
#include "circuit/mna.hpp"
#include "circuit/testbench.hpp"
#include "devices/fit.hpp"
#include "numeric/lu.hpp"
#include "numeric/sparse.hpp"
#include "sim/engine.hpp"

#include <benchmark/benchmark.h>

#include <random>

using namespace ssnkit;

namespace {

core::SsnScenario scenario_for(int n, double c_mult) {
  core::SsnScenario s;
  s.n_drivers = n;
  s.inductance = 5e-9;
  s.vdd = 1.8;
  s.slope = 1.8e10;
  s.device = {.k = 5.3e-3, .lambda = 1.17, .vx = 0.56};
  s.capacitance = s.critical_capacitance() * c_mult;
  return s;
}

void BM_LOnlyVmax(benchmark::State& state) {
  const auto s = scenario_for(8, 0.0).with_capacitance(0.0);
  for (auto _ : state) {
    core::LOnlyModel m(s);
    benchmark::DoNotOptimize(m.v_max());
  }
}
BENCHMARK(BM_LOnlyVmax);

void BM_LcVmax(benchmark::State& state) {
  const auto s = scenario_for(8, double(state.range(0)) / 10.0);
  for (auto _ : state) {
    core::LcModel m(s);
    benchmark::DoNotOptimize(m.v_max());
  }
}
BENCHMARK(BM_LcVmax)->Arg(3)->Arg(10)->Arg(40);  // over/critical/under damped

void BM_BaselineVemuru(benchmark::State& state) {
  core::BaselineInputs in;
  in.n_drivers = 8;
  in.inductance = 5e-9;
  in.slope = 1.8e10;
  in.vdd = 1.8;
  in.b = 4.4e-3;
  in.vt = 0.45;
  in.alpha = 1.3;
  for (auto _ : state) benchmark::DoNotOptimize(core::vemuru_vmax(in));
}
BENCHMARK(BM_BaselineVemuru);

void BM_AsdmFit(benchmark::State& state) {
  const auto tech = process::tech_180nm();
  const auto golden = tech.make_golden();
  devices::AsdmFitRegion region;
  region.vd = tech.vdd;
  region.vg_lo = 0.45 * tech.vdd;
  region.vg_hi = tech.vdd;
  region.vs_hi = 0.45 * tech.vdd;
  for (auto _ : state)
    benchmark::DoNotOptimize(devices::fit_asdm(*golden, region));
}
BENCHMARK(BM_AsdmFit);

void BM_LuSolve(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  numeric::Matrix a(n, n);
  numeric::Vector b(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = dist(rng);
    a(r, r) += 4.0;
    b[r] = dist(rng);
  }
  for (auto _ : state) {
    numeric::LuFactorization lu(a);
    benchmark::DoNotOptimize(lu.solve(b));
  }
  state.SetComplexityN(int64_t(n));
}
BENCHMARK(BM_LuSolve)->Arg(8)->Arg(32)->Arg(128)->Complexity(benchmark::oNCubed);

void BM_SsnTransient(benchmark::State& state) {
  const auto cal = analysis::calibrate(process::tech_180nm());
  for (auto _ : state) {
    circuit::SsnBenchSpec spec;
    spec.tech = cal.tech;
    spec.n_drivers = int(state.range(0));
    spec.input_rise_time = 0.1e-9;
    benchmark::DoNotOptimize(analysis::measure_ssn(spec).v_max);  // ssnlint-ignore(SSN-L013)
  }
}
BENCHMARK(BM_SsnTransient)->Arg(2)->Arg(8)->Arg(24)->Arg(48)->Unit(benchmark::kMillisecond);

// Driver-bank collapse control: the same transient on the per-driver
// reference circuit (every driver its own group of one). BM_SsnTransient/N
// over BM_SsnTransientExpanded/N is the collapse speedup, measured in one
// run; make_ssn_testbench simulates the whole uniform bank as one M-scaled
// driver.
void BM_SsnTransientExpanded(benchmark::State& state) {
  const auto cal = analysis::calibrate(process::tech_180nm());
  for (auto _ : state) {
    circuit::SsnBenchSpec spec;
    spec.tech = cal.tech;
    spec.n_drivers = int(state.range(0));
    spec.input_rise_time = 0.1e-9;
    auto bench = circuit::make_ssn_testbench(
        spec, circuit::expanded_driver_groups(spec));
    benchmark::DoNotOptimize(analysis::measure_ssn(bench).v_max);  // ssnlint-ignore(SSN-L013)
  }
}
BENCHMARK(BM_SsnTransientExpanded)
    ->Arg(8)
    ->Arg(24)
    ->Arg(48)
    ->Unit(benchmark::kMillisecond);

// Trust-layer overhead: the same transient with the per-step residual
// check + per-epoch condition estimate disabled. The acceptance bar is
// BM_SsnTransient/N within 5% of BM_SsnTransientUnverified/N — the checks
// reuse the step's own CSR arrays, so the delta should be noise-level.
void BM_SsnTransientUnverified(benchmark::State& state) {
  const auto cal = analysis::calibrate(process::tech_180nm());
  for (auto _ : state) {
    circuit::SsnBenchSpec spec;
    spec.tech = cal.tech;
    spec.n_drivers = int(state.range(0));
    spec.input_rise_time = 0.1e-9;
    analysis::MeasureOptions mo;
    mo.transient.verify.enabled = false;
    benchmark::DoNotOptimize(analysis::measure_ssn(spec, mo).v_max);  // ssnlint-ignore(SSN-L013)
  }
}
BENCHMARK(BM_SsnTransientUnverified)
    ->Arg(8)
    ->Arg(24)
    ->Arg(48)
    ->Unit(benchmark::kMillisecond);

// --- solver hot path: one Newton iteration's linear-algebra cost ----------
//
// Dense is the pre-stamped-workspace path: zero an n*n matrix, stamp,
// convert to CSR, run a full sparse LU (fresh symbolic analysis + pivoting)
// and solve. Sparse is the engine's current path: stamp into the cached
// CSR pattern and numerically refactorize on the frozen pivot order. The
// ratio of these two is the per-iteration speedup of the rewrite. Both
// stamp the expanded per-driver circuit: the collapsed bench is a handful
// of nodes at any N, which would hide the matrix-size dependence.

struct AssemblyFixture {
  circuit::SsnBench bench;
  numeric::Vector x;  ///< DC solution: a realistic stamping point
  std::size_t n = 0;

  explicit AssemblyFixture(int n_drivers)
      : bench([&] {
          circuit::SsnBenchSpec spec;
          spec.n_drivers = n_drivers;
          return circuit::make_ssn_testbench(
              spec, circuit::expanded_driver_groups(spec));
        }()) {
    x = sim::dc_operating_point(bench.circuit).solution;
    n = std::size_t(bench.circuit.unknown_count());
  }
};

void BM_MnaAssemblyDense(benchmark::State& state) {
  AssemblyFixture fx(int(state.range(0)));
  numeric::Matrix a(fx.n, fx.n);
  numeric::Vector b(fx.n);
  for (auto _ : state) {
    a.fill(0.0);
    b.fill(0.0);
    circuit::StampContext ctx;
    ctx.mode = circuit::AnalysisMode::kDc;
    ctx.x = &fx.x;
    ctx.a = &a;
    ctx.b = &b;
    for (const auto& el : fx.bench.circuit.elements()) el->stamp(ctx);
    numeric::SparseLu lu(numeric::SparseMatrix::from_dense(a));
    benchmark::DoNotOptimize(lu.solve(b));
  }
}
BENCHMARK(BM_MnaAssemblyDense)
    ->Arg(4)
    ->Arg(12)
    ->Arg(24)
    ->Unit(benchmark::kMicrosecond);

void BM_MnaAssemblySparse(benchmark::State& state) {
  AssemblyFixture fx(int(state.range(0)));
  numeric::StampedMatrix sm;
  numeric::Vector b(fx.n);
  numeric::Vector x_out(fx.n);
  circuit::StampContext ctx;
  ctx.mode = circuit::AnalysisMode::kDc;
  ctx.x = &fx.x;
  ctx.sa = &sm;
  ctx.b = &b;
  // Pattern discovery + symbolic analysis: once, outside the timed loop —
  // exactly as the engine amortizes them across Newton iterations.
  sm.begin_pattern(fx.n);
  for (const auto& el : fx.bench.circuit.elements()) el->stamp(ctx);
  sm.finalize_pattern();
  numeric::SparseFactor factor;
  factor.factorize(sm);
  for (auto _ : state) {
    sm.clear();
    b.fill(0.0);
    for (const auto& el : fx.bench.circuit.elements()) el->stamp(ctx);
    factor.refactorize(sm);
    factor.solve(b, x_out);
    benchmark::DoNotOptimize(x_out);
  }
}
BENCHMARK(BM_MnaAssemblySparse)
    ->Arg(4)
    ->Arg(12)
    ->Arg(24)
    ->Unit(benchmark::kMicrosecond);

// --- batch runner: Monte Carlo at several sample/thread counts ------------

void BM_McClosedForm(benchmark::State& state) {
  const auto s = scenario_for(8, 1.0);
  analysis::MonteCarloOptions opts;
  opts.samples = int(state.range(0));
  opts.threads = int(state.range(1));
  for (auto _ : state)
    benchmark::DoNotOptimize(analysis::monte_carlo_vmax(s, opts));
}
BENCHMARK(BM_McClosedForm)
    ->Args({20000, 1})
    ->Args({20000, 2})
    ->Args({20000, 4})
    ->Unit(benchmark::kMillisecond);

void BM_McSimBatch(benchmark::State& state) {
  const auto cal = analysis::calibrate(process::tech_180nm());
  analysis::SimMonteCarloOptions opts;
  opts.samples = int(state.range(0));
  opts.threads = int(state.range(1));
  for (auto _ : state)
    benchmark::DoNotOptimize(analysis::monte_carlo_vmax_sim(
        cal, process::package_pga(), 4, 0.1e-9, true, opts));
}
BENCHMARK(BM_McSimBatch)
    ->Args({4, 1})
    ->Args({4, 2})
    ->Args({8, 1})
    ->Args({8, 4})
    ->Unit(benchmark::kMillisecond);

void BM_DcOperatingPoint(benchmark::State& state) {
  const auto cal = analysis::calibrate(process::tech_180nm());
  circuit::SsnBenchSpec spec;
  spec.tech = cal.tech;
  spec.n_drivers = 8;
  auto bench = circuit::make_ssn_testbench(spec);
  for (auto _ : state)
    benchmark::DoNotOptimize(sim::dc_operating_point(bench.circuit));
}
BENCHMARK(BM_DcOperatingPoint)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
