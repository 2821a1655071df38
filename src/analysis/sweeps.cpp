#include "analysis/sweeps.hpp"

#include "analysis/design.hpp"
#include "numeric/stats.hpp"
#include "support/contracts.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

namespace ssnkit::analysis {

namespace {

sim::TransientOptions tuned_transient(const sim::TransientOptions& base,
                                      double rise_time) {
  sim::TransientOptions t = base;
  // Resolve the ramp well regardless of the adaptive controller's mood.
  if (t.dt_max <= 0.0) t.dt_max = rise_time / 200.0;
  return t;
}

/// Measure one sweep point (an item of a run_resumable_batch). In
/// non-resilient mode a failure throws — the first exception (by completion
/// order) propagates after the batch joins.
ResilientMeasurement measure_point(const circuit::SsnBenchSpec& spec,
                                   const sim::TransientOptions& transient,
                                   bool resilient,
                                   const sim::RecoveryPolicy& policy,
                                   const support::RunContext* ctx) {
  MeasureOptions mo;
  mo.transient = transient;
  mo.transient.run_ctx = ctx;
  if (resilient) return measure_ssn_resilient(spec, mo, policy);
  ResilientMeasurement rm;
  rm.measurement = measure_ssn(spec, mo);
  return rm;
}

}  // namespace

std::vector<double> default_capacitance_sweep() {
  // Log sweep 0.1 pF .. 20 pF, 17 points.
  std::vector<double> cs;
  const double lo = std::log10(0.1e-12), hi = std::log10(20e-12);
  for (int i = 0; i < 17; ++i)
    cs.push_back(std::pow(10.0, lo + (hi - lo) * double(i) / 16.0));
  return cs;
}

DriverSweepResult run_driver_sweep(const DriverSweepConfig& config) {
  return run_driver_sweep(config, calibrate(config.tech, config.golden));
}

DriverSweepResult run_driver_sweep(const DriverSweepConfig& config,
                                   const Calibration& calibration) {
  SSN_REQUIRE(!config.driver_counts.empty(),
              "run_driver_sweep: no driver counts");

  DriverSweepResult out;
  out.calibration = calibration;

  const sim::TransientOptions transient =
      tuned_transient(config.transient, config.input_rise_time);
  const std::vector<BatchSlot> points = run_resumable_batch(
      config.driver_counts.size(), config.threads, config.run_ctx,
      config.journal, config.resume, [&](std::size_t i) {
        circuit::SsnBenchSpec spec = make_bench_spec(
            out.calibration, config.package, config.driver_counts[i],
            config.input_rise_time, config.include_package_c);
        spec.include_pullup = config.include_pullup;
        return measure_point(spec, transient, config.resilient,
                             config.recovery, config.run_ctx);
      });

  for (std::size_t i = 0; i < config.driver_counts.size(); ++i) {
    const int n = config.driver_counts[i];
    const BatchSlot& pt = points[i];
    DriverSweepRow row;
    row.n = n;
    if (!pt.attempted) {
      ++out.summary.not_run;
      continue;
    }
    if (pt.resumed) ++out.resumed;
    if (config.resilient)
      out.summary.record("n=" + std::to_string(n), pt.result.fidelity,
                         pt.result.error);
    if (!pt.result.ok()) continue;
    row.sim = pt.result.measurement.v_max;
    row.fidelity = pt.result.fidelity;

    row.this_work = predict_vmax(make_scenario(out.calibration, config.package,
                                               n, config.input_rise_time,
                                               config.include_package_c));

    const core::BaselineInputs base = make_baseline_inputs(
        out.calibration, config.package, n, config.input_rise_time);
    row.vemuru = core::vemuru_vmax(base);
    row.song = core::song_vmax(base);
    row.senthinathan = core::senthinathan_prince_vmax(base);

    row.err_this = numeric::relative_error(row.this_work, row.sim);
    row.err_vemuru = numeric::relative_error(row.vemuru, row.sim);
    row.err_song = numeric::relative_error(row.song, row.sim);
    row.err_senthinathan = numeric::relative_error(row.senthinathan, row.sim);
    out.rows.push_back(row);
  }
  if (out.summary.not_run > 0 && config.run_ctx != nullptr)
    out.summary.stop = config.run_ctx->stop_reason();
  return out;
}

CapacitanceSweepResult run_capacitance_sweep(const CapacitanceSweepConfig& config) {
  CapacitanceSweepResult out;
  out.calibration = calibrate(config.tech, config.golden);

  std::vector<double> cs = config.capacitances;
  if (cs.empty()) cs = default_capacitance_sweep();

  const sim::TransientOptions transient =
      tuned_transient(config.transient, config.input_rise_time);

  const core::SsnScenario base_scenario =
      make_scenario(out.calibration, config.package, config.n_drivers,
                    config.input_rise_time, /*include_c=*/false);
  out.critical_capacitance = base_scenario.critical_capacitance();
  const double l_only_vmax = core::LOnlyModel(base_scenario).v_max();

  const std::vector<BatchSlot> points = run_resumable_batch(
      cs.size(), config.threads, config.run_ctx, config.journal,
      config.resume, [&](std::size_t i) {
        process::Package pkg = config.package;
        pkg.capacitance = cs[i];
        circuit::SsnBenchSpec spec =
            make_bench_spec(out.calibration, pkg, config.n_drivers,
                            config.input_rise_time, /*include_c=*/true);
        spec.include_pullup = config.include_pullup;
        return measure_point(spec, transient, config.resilient,
                             config.recovery, config.run_ctx);
      });

  for (std::size_t i = 0; i < cs.size(); ++i) {
    const double c = cs[i];
    const BatchSlot& pt = points[i];
    CapacitanceSweepRow row;
    row.c = c;
    if (!pt.attempted) {
      ++out.summary.not_run;
      continue;
    }
    if (pt.resumed) ++out.resumed;
    if (config.resilient) {
      char label[32];
      std::snprintf(label, sizeof(label), "c=%.3gF", c);
      out.summary.record(label, pt.result.fidelity, pt.result.error);
    }
    if (!pt.result.ok()) continue;
    row.sim = pt.result.measurement.v_max;
    row.fidelity = pt.result.fidelity;

    const core::LcModel lc(base_scenario.with_capacitance(c));
    row.lc_model = lc.v_max();
    row.zeta = lc.zeta();
    row.lc_case = lc.max_case();
    row.l_only = l_only_vmax;

    row.err_lc = numeric::relative_error(row.lc_model, row.sim);
    row.err_l_only = numeric::relative_error(row.l_only, row.sim);
    out.rows.push_back(row);
  }
  if (out.summary.not_run > 0 && config.run_ctx != nullptr)
    out.summary.stop = config.run_ctx->stop_reason();
  return out;
}

std::vector<SlopeSweepRow> run_slope_sweep(const Calibration& cal,
                                           const process::Package& package,
                                           int n_drivers,
                                           const std::vector<double>& rise_times,
                                           bool include_c,
                                           const sim::TransientOptions& topts,
                                           BatchSummary* summary, int threads,
                                           const support::RunContext* run_ctx) {
  SSN_REQUIRE(!rise_times.empty(), "run_slope_sweep: no rise times");
  std::vector<SlopeSweepRow> rows;

  const std::vector<BatchSlot> points = run_resumable_batch(
      rise_times.size(), threads, run_ctx, nullptr, nullptr,
      [&](std::size_t i) {
        const double tr = rise_times[i];
        return measure_point(make_bench_spec(cal, package, n_drivers, tr,
                                             include_c),
                             tuned_transient(topts, tr),
                             /*resilient=*/summary != nullptr, {}, run_ctx);
      });

  for (std::size_t i = 0; i < rise_times.size(); ++i) {
    const double tr = rise_times[i];
    const BatchSlot& pt = points[i];
    SlopeSweepRow row;
    row.rise_time = tr;
    row.slope = cal.tech.vdd / tr;
    if (!pt.attempted) {
      if (summary) ++summary->not_run;
      continue;
    }
    if (summary) {
      char label[32];
      std::snprintf(label, sizeof(label), "tr=%.3gs", tr);
      summary->record(label, pt.result.fidelity, pt.result.error);
    }
    if (!pt.result.ok()) continue;
    row.sim = pt.result.measurement.v_max;
    row.fidelity = pt.result.fidelity;

    row.model =
        predict_vmax(make_scenario(cal, package, n_drivers, tr, include_c));
    row.err = numeric::relative_error(row.model, row.sim);
    rows.push_back(row);
  }
  if (summary != nullptr && summary->not_run > 0 && run_ctx != nullptr)
    summary->stop = run_ctx->stop_reason();
  return rows;
}

std::vector<BetaPoint> beta_equivalence_points(const Calibration& cal,
                                               double beta_target,
                                               const std::vector<int>& ns,
                                               double rise_time) {
  if (!(beta_target > 0.0))
    throw std::invalid_argument("beta_equivalence_points: beta_target must be > 0");
  if (!(rise_time > 0.0))
    throw std::invalid_argument("beta_equivalence_points: rise_time must be > 0");
  std::vector<BetaPoint> pts;
  const double slope = cal.tech.vdd / rise_time;
  for (int n : ns) {
    BetaPoint p;
    p.n = n;
    p.slope = slope;
    p.l = beta_target / (double(n) * slope);
    core::SsnScenario s;
    s.n_drivers = n;
    s.inductance = p.l;
    s.capacitance = 0.0;
    s.slope = slope;
    s.vdd = cal.tech.vdd;
    s.device = cal.asdm.params;
    p.beta = s.beta();
    p.v_max = core::LOnlyModel(s).v_max();
    pts.push_back(p);
  }
  return pts;
}

}  // namespace ssnkit::analysis
