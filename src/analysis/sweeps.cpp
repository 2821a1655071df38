#include "analysis/sweeps.hpp"

#include "analysis/design.hpp"
#include "numeric/stats.hpp"
#include "support/contracts.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace ssnkit::analysis {

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

  BatchRun batch = run_resumable_batch(
      config.driver_counts.size(), config.threads, config.run_ctx,
      config.journal, config.resume,
      [&](std::size_t i) {
        return measure_batch_item(
            make_bench_spec(out.calibration, config.package,
                            config.driver_counts[i], config.input_rise_time,
                            config.include_package_c),
            {.transient = config.transient}, config.recovery, config.run_ctx);
      },
      [&](std::size_t i) {
        return "n=" + std::to_string(config.driver_counts[i]);
      });
  out.summary = std::move(batch.summary);
  out.resumed = batch.resumed;

  for (std::size_t i = 0; i < config.driver_counts.size(); ++i) {
    const BatchSlot& pt = batch.slots[i];
    if (!pt.ok()) continue;
    DriverSweepRow row;
    row.n = config.driver_counts[i];
    row.sim = pt.result.measurement.v_max;
    row.fidelity = pt.result.fidelity;

    row.this_work = predict_vmax(make_scenario(out.calibration, config.package,
                                               row.n, config.input_rise_time,
                                               config.include_package_c));

    const core::BaselineInputs base = make_baseline_inputs(
        out.calibration, config.package, row.n, config.input_rise_time);
    row.vemuru = core::vemuru_vmax(base);
    row.song = core::song_vmax(base);
    row.senthinathan = core::senthinathan_prince_vmax(base);

    row.err_this = numeric::relative_error(row.this_work, row.sim);
    row.err_vemuru = numeric::relative_error(row.vemuru, row.sim);
    row.err_song = numeric::relative_error(row.song, row.sim);
    row.err_senthinathan = numeric::relative_error(row.senthinathan, row.sim);
    out.rows.push_back(row);
  }
  return out;
}

CapacitanceSweepResult run_capacitance_sweep(const CapacitanceSweepConfig& config) {
  CapacitanceSweepResult out;
  out.calibration = calibrate(config.tech, config.golden);

  std::vector<double> cs = config.capacitances;
  if (cs.empty()) cs = default_capacitance_sweep();

  const core::SsnScenario base_scenario =
      make_scenario(out.calibration, config.package, config.n_drivers,
                    config.input_rise_time, /*include_c=*/false);
  out.critical_capacitance = base_scenario.critical_capacitance();
  const double l_only_vmax = core::LOnlyModel(base_scenario).v_max();

  BatchRun batch = run_resumable_batch(
      cs.size(), config.threads, config.run_ctx, config.journal,
      config.resume,
      [&](std::size_t i) {
        process::Package pkg = config.package;
        pkg.capacitance = cs[i];
        return measure_batch_item(
            make_bench_spec(out.calibration, pkg, config.n_drivers,
                            config.input_rise_time, /*include_c=*/true),
            {.transient = config.transient}, config.recovery, config.run_ctx);
      },
      [&](std::size_t i) {
        char label[32];
        std::snprintf(label, sizeof(label), "c=%.3gF", cs[i]);
        return std::string(label);
      });
  out.summary = std::move(batch.summary);
  out.resumed = batch.resumed;

  for (std::size_t i = 0; i < cs.size(); ++i) {
    const BatchSlot& pt = batch.slots[i];
    if (!pt.ok()) continue;
    CapacitanceSweepRow row;
    row.c = cs[i];
    row.sim = pt.result.measurement.v_max;
    row.fidelity = pt.result.fidelity;

    const core::LcModel lc(base_scenario.with_capacitance(row.c));
    row.lc_model = lc.v_max();
    row.zeta = lc.zeta();
    row.lc_case = lc.max_case();
    row.l_only = l_only_vmax;

    row.err_lc = numeric::relative_error(row.lc_model, row.sim);
    row.err_l_only = numeric::relative_error(row.l_only, row.sim);
    out.rows.push_back(row);
  }
  return out;
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
