// Run the MNA simulator on an SSN testbench and extract the quantities the
// paper reports: the ground-bounce waveform, the inductor current and the
// maximum noise during the input ramp.
#pragma once

#include "circuit/testbench.hpp"
#include "core/scenario.hpp"
#include "sim/engine.hpp"
#include "verify/physics.hpp"
#include "verify/trust.hpp"
#include "waveform/waveform.hpp"

namespace ssnkit::analysis {

struct SsnMeasurement {
  double v_max = 0.0;        ///< max ground bounce during the ramp [V]
  double t_at_max = 0.0;     ///< where it occurred [s]
  waveform::Waveform vssi;   ///< internal-ground voltage
  waveform::Waveform i_l;    ///< ground-inductor current
  waveform::Waveform vin;    ///< first driver's input
  waveform::Waveform vout;   ///< first driver's output
  sim::SolverStats stats;
  /// How this measurement was verified: the engine's solve verdict, merged
  /// with the physics-invariant findings when verify_measurement() ran.
  verify::TrustReport trust;
};

struct MeasureOptions {
  /// Simulate this factor past the ramp end (the bounce tail is useful for
  /// plots; the reported max is still taken inside the ramp).
  double overshoot_factor = 1.0;
  sim::TransientOptions transient;  ///< t_start/t_stop are filled in
};

/// Build the bench circuit, simulate it, and measure. The maximum is taken
/// over [0, t_ramp_end], matching the validity window of the paper's
/// formulas.
SsnMeasurement measure_ssn(const circuit::SsnBenchSpec& spec,
                           const MeasureOptions& opts = {});

/// Same, for a bench the caller already customized.
SsnMeasurement measure_ssn(circuit::SsnBench& bench, const MeasureOptions& opts = {});

/// The transient window measure_ssn simulates: [0, overshoot * t_ramp_end],
/// with the caller's other transient options.
sim::TransientOptions measurement_window(const circuit::SsnBench& bench,
                                         const MeasureOptions& opts);

/// Read the measured quantities off a finished transient of `bench`. The
/// first driver's input/output are its group's nodes (every member of a
/// group carries the same waveforms).
SsnMeasurement extract_measurement(const circuit::SsnBench& bench,
                                   const sim::TransientResult& result);

/// Run the src/verify physics invariants on a simulated measurement and
/// fold the findings into its trust report: passivity of the ground path,
/// V_max/extremum consistency with the fitted Table 1 damping case. Needs
/// the calibrated scenario (package L plus the fitted ASDM device select
/// the damping case); violations downgrade trust, never throw.
void verify_measurement(SsnMeasurement& m, const core::SsnScenario& scenario,
                        const verify::PhysicsCheckOptions& opts = {});

}  // namespace ssnkit::analysis
