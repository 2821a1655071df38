// Calibration: extract from a technology's golden device everything the
// closed-form models need — the ASDM (K, lambda, V_x) for this paper's
// formulas and the alpha-power (B, V_T, alpha) for the baseline formulas.
// This is the step a user runs once per process corner.
#pragma once

#include "circuit/testbench.hpp"
#include "core/baselines.hpp"
#include "core/scenario.hpp"
#include "devices/fit.hpp"
#include "process/package.hpp"
#include "process/technology.hpp"

namespace ssnkit::analysis {

struct Calibration {
  process::Technology tech;
  process::GoldenKind golden = process::GoldenKind::kAlphaPower;
  double width_mult = 1.0;
  devices::AsdmFitResult asdm;          ///< paper's device model
  devices::AlphaPowerFitResult alpha;   ///< baselines' device model

  /// Alpha-power coefficient B = id0/(vdd-vt0)^alpha for BaselineInputs.
  double baseline_b() const;
};

/// Fit both device abstractions over the standard SSN region: drain at vdd,
/// gate in [vg_lo_frac*vdd, vdd], source bounce in [0, vs_hi_frac*vdd].
Calibration calibrate(const process::Technology& tech,
                      process::GoldenKind golden = process::GoldenKind::kAlphaPower,
                      double width_mult = 1.0, double vg_lo_frac = 0.45,
                      double vs_hi_frac = 0.45);

/// Build the closed-form scenario matching an SsnBenchSpec-style setup.
/// `include_c` selects whether the scenario carries the pad capacitance
/// (LcModel) or zero (LOnlyModel).
core::SsnScenario make_scenario(const Calibration& cal,
                                const process::Package& package, int n_drivers,
                                double input_rise_time, bool include_c);

/// The simulator testbench of the same setup (the scenario's oracle).
circuit::SsnBenchSpec make_bench_spec(const Calibration& cal,
                                      const process::Package& package,
                                      int n_drivers, double input_rise_time,
                                      bool include_c);

/// Baseline inputs matching the same setup.
core::BaselineInputs make_baseline_inputs(const Calibration& cal,
                                          const process::Package& package,
                                          int n_drivers, double input_rise_time);

}  // namespace ssnkit::analysis
