// Parameter sweeps that regenerate the paper's evaluation figures: driver
// count (Fig. 3) and pad capacitance (Fig. 4), plus the beta-equivalence
// check used by the extension benches. Each simulated point is one
// measure_point (analysis/resilience.hpp) — the same simulation and checks
// as `estimate --verify` — run as one item of run_resumable_batch.
#pragma once

#include "analysis/calibrate.hpp"
#include "analysis/measure.hpp"
#include "analysis/resilience.hpp"
#include "core/l_only_model.hpp"
#include "core/lc_model.hpp"
#include "sim/recovery.hpp"
#include "support/journal.hpp"
#include "support/runcontext.hpp"

#include <map>
#include <vector>

namespace ssnkit::analysis {

// --- Fig. 3: max SSN vs number of simultaneously switching drivers --------

struct DriverSweepConfig {
  process::Technology tech = process::tech_180nm();
  process::Package package = process::package_pga();
  process::GoldenKind golden = process::GoldenKind::kAlphaPower;
  double input_rise_time = 0.1e-9;
  std::vector<int> driver_counts = {1, 2, 4, 6, 8, 10, 12, 14, 16};
  bool include_package_c = false;  ///< Fig. 3 compares L-only models
  sim::TransientOptions transient;
  /// A failing point climbs this recovery ladder; a still-failing point is
  /// skipped (and reported in the summary) instead of aborting the sweep.
  sim::RecoveryPolicy recovery;
  /// Worker threads for the simulation points: 1 = serial (default), 0 =
  /// auto. Points write index-addressed slots and the summary/rows are
  /// assembled in sweep order after the join, so the result is
  /// bit-identical for any value.
  int threads = 1;
  /// Optional lifecycle context (see SimMonteCarloOptions::run_ctx): a stop
  /// drains the sweep; unstarted / interrupted points are reported as
  /// not-run in the summary. Not owned.
  const support::RunContext* run_ctx = nullptr;
  /// Optional checkpoint journal / resume set, exactly as in
  /// SimMonteCarloOptions. Not owned.
  support::BatchJournal* journal = nullptr;
  const std::map<std::size_t, support::PointRecord>* resume = nullptr;
};

struct DriverSweepRow {
  int n = 0;
  double sim = 0.0;           ///< simulator reference (the HSPICE stand-in)
  double this_work = 0.0;     ///< paper's model (L-only or LC per config)
  double vemuru = 0.0;
  double song = 0.0;
  double senthinathan = 0.0;
  double err_this = 0.0;      ///< |model-sim|/sim
  double err_vemuru = 0.0;
  double err_song = 0.0;
  double err_senthinathan = 0.0;
  /// Solver fidelity of the `sim` reference (kFullDevice unless a recovery
  /// rung had to engage for this point).
  sim::Fidelity fidelity = sim::Fidelity::kFullDevice;
};

struct DriverSweepResult {
  Calibration calibration;
  std::vector<DriverSweepRow> rows;
  /// Per-fidelity / per-failure accounting; failed points appear here (and
  /// in `notes`) rather than as rows. Not-run points (lifecycle stop)
  /// appear only in `summary.not_run`.
  BatchSummary summary;
  /// The points' verdicts merged (BatchRun::trust): a row that misses the
  /// paper's 3 % bar between `this_work` and `sim` is named in its note.
  verify::TrustReport trust;
  /// Points restored from the resume journal rather than simulated here.
  std::size_t resumed = 0;
};

DriverSweepResult run_driver_sweep(const DriverSweepConfig& config);
/// Same, with `calibration` in place of fitting config.tech / config.golden
/// (which are then ignored).
DriverSweepResult run_driver_sweep(const DriverSweepConfig& config,
                                   const Calibration& calibration);

// --- Fig. 4: max SSN vs pad capacitance ------------------------------------

struct CapacitanceSweepConfig {
  process::Technology tech = process::tech_180nm();
  process::Package package = process::package_pga();  ///< supplies L
  process::GoldenKind golden = process::GoldenKind::kAlphaPower;
  int n_drivers = 8;
  double input_rise_time = 0.1e-9;
  std::vector<double> capacitances;  ///< [F]; empty = log sweep 0.1..20 pF
  sim::TransientOptions transient;
  sim::RecoveryPolicy recovery;  ///< see DriverSweepConfig::recovery
  int threads = 1;  ///< see DriverSweepConfig::threads
  /// Lifecycle / checkpoint knobs; see DriverSweepConfig. Not owned.
  const support::RunContext* run_ctx = nullptr;
  support::BatchJournal* journal = nullptr;
  const std::map<std::size_t, support::PointRecord>* resume = nullptr;
};

struct CapacitanceSweepRow {
  double c = 0.0;
  double sim = 0.0;
  double lc_model = 0.0;       ///< Table 1 formulas (this work, full)
  double l_only = 0.0;         ///< Section 3 formula (capacitance ignored)
  double err_lc = 0.0;
  double err_l_only = 0.0;
  double zeta = 0.0;           ///< damping ratio at this C
  core::MaxSsnCase lc_case = core::MaxSsnCase::kOverDamped;
  sim::Fidelity fidelity = sim::Fidelity::kFullDevice;
};

struct CapacitanceSweepResult {
  Calibration calibration;
  double critical_capacitance = 0.0;
  std::vector<CapacitanceSweepRow> rows;
  BatchSummary summary;
  verify::TrustReport trust;  ///< see DriverSweepResult::trust
  std::size_t resumed = 0;    ///< see DriverSweepResult::resumed
};

CapacitanceSweepResult run_capacitance_sweep(const CapacitanceSweepConfig& config);

/// The default capacitance grid used when CapacitanceSweepConfig::
/// capacitances is empty (log sweep 0.1..20 pF, 17 points). Exposed so the
/// CLI can know the point count up front — a checkpoint journal must be
/// bound to the batch size before the sweep runs.
std::vector<double> default_capacitance_sweep();

// --- extensions --------------------------------------------------------------

/// The paper's beta-equivalence claim (Eqn 9/10): configurations with equal
/// beta = N*L*S have equal predicted V_max. For each driver count in `ns`
/// the slope is held at vdd/rise_time and L is chosen so the product stays
/// at beta_target. A test/bench asserts the resulting V_max coincide.
struct BetaPoint {
  int n = 0;
  double l = 0.0;
  double slope = 0.0;
  double v_max = 0.0;
  double beta = 0.0;
};
std::vector<BetaPoint> beta_equivalence_points(const Calibration& cal,
                                               double beta_target,
                                               const std::vector<int>& ns,
                                               double rise_time);

}  // namespace ssnkit::analysis
