// Failure-tolerant SSN measurement: the analysis-layer end of the recovery
// ladder. The engine-level rungs (sim/recovery.hpp) retry the transient with
// progressively cheaper numerics; this layer adds the final rung the engine
// cannot reach — degrading to the paper's closed-form LC / L-only models,
// which need the calibrated SsnScenario known only here — and the batch
// bookkeeping (per-fidelity / per-failure summaries) that sweeps and Monte
// Carlo runs report.
#pragma once

#include "analysis/measure.hpp"
#include "core/scenario.hpp"
#include "sim/recovery.hpp"
#include "support/diagnostics.hpp"
#include "support/journal.hpp"
#include "support/runcontext.hpp"

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ssnkit::analysis {

/// A measurement tagged with the solver fidelity that produced it. When the
/// whole ladder (including the analytic rung, if a scenario was supplied)
/// failed, `fidelity` is kFailed and `error` carries the typed diagnostic.
struct ResilientMeasurement {
  SsnMeasurement measurement;
  sim::Fidelity fidelity = sim::Fidelity::kFullDevice;
  /// Every recovery rung attempted, in order, with its outcome.
  std::vector<support::RecoveryAttempt> attempts;
  /// Populated when every simulation rung failed. The analytic rung, when
  /// taken, leaves it set so callers can still see why simulation degraded.
  std::optional<support::SolverError> error;

  bool ok() const { return fidelity != sim::Fidelity::kFailed; }
  bool degraded() const { return fidelity != sim::Fidelity::kFullDevice; }
};

/// measure_ssn with the recovery ladder underneath. Never throws on solver
/// failure. When `analytic_fallback` is non-null and every simulation rung
/// fails, the measurement is evaluated on the closed forms (LcModel when the
/// scenario carries capacitance, LOnlyModel otherwise) and tagged kAnalytic.
ResilientMeasurement measure_ssn_resilient(
    const circuit::SsnBenchSpec& spec, const MeasureOptions& opts = {},
    const sim::RecoveryPolicy& policy = {},
    const core::SsnScenario* analytic_fallback = nullptr);

/// Evaluate the closed-form measurement directly (the analytic rung on its
/// own). Used by batch drivers that already failed simulation elsewhere.
SsnMeasurement analytic_measurement(const core::SsnScenario& scenario,
                                    std::size_t points = 512);

/// A finished batch item (sweep point or simulator-backed Monte Carlo
/// sample) in checkpoint-journal form. Only the fields the batch drivers'
/// index-order replay reads are journaled: fidelity, V_max (exact bits), the
/// error *kind* (BatchSummary keys notes and counters on the kind alone) and
/// the trust verdict — exactly what makes a resumed batch bit-identical to
/// an uninterrupted one.
support::PointRecord encode_point(const ResilientMeasurement& rm);

/// Rebuild the replay-visible slice of a ResilientMeasurement from its
/// journal record. False when the record's enums are out of range (a
/// corrupt or future-version journal that still parsed structurally).
bool decode_point(const support::PointRecord& rec, ResilientMeasurement& rm);

/// Aggregated outcome of a batch of resilient runs (a sweep or a Monte
/// Carlo population): how many items landed at each fidelity and which
/// error kinds were seen.
struct BatchSummary {
  std::size_t total = 0;
  std::size_t full_fidelity = 0;  ///< fidelity == kFullDevice
  std::size_t recovered = 0;      ///< simulation rungs 1-4
  std::size_t analytic = 0;       ///< degraded to the closed forms
  std::size_t failed = 0;         ///< no rung succeeded
  /// Items the lifecycle layer never ran (cancel / deadline / item budget
  /// drained the batch before they started). Not counted in `total`.
  std::size_t not_run = 0;
  /// Why the batch stopped early (kNone for a run that completed).
  support::StopReason stop = support::StopReason::kNone;
  std::map<std::string, std::size_t> by_fidelity;  ///< fidelity name -> count
  std::map<std::string, std::size_t> by_error;     ///< error kind -> count
  /// One line per degraded or failed item ("label: fidelity [error]").
  std::vector<std::string> notes;

  void record(const std::string& label, sim::Fidelity fidelity,
              const std::optional<support::SolverError>& error);
  bool all_full_fidelity() const { return full_fidelity == total; }
  std::string to_string() const;
};

/// One item of a resumable batch. A restored item's result carries only
/// the journaled fields; no slot keeps the transient's waveforms.
struct BatchSlot {
  ResilientMeasurement result;
  bool attempted = false;  ///< ran or restored; false = not-run (stopped)
  bool resumed = false;    ///< restored from the resume set

  /// Ran (or was restored) and some rung produced a measurement.
  bool ok() const { return attempted && result.ok(); }
};

/// A finished batch: one index-addressed slot per item and the summary
/// replayed over them in index order.
struct BatchRun {
  std::vector<BatchSlot> slots;
  /// Every attempted item recorded under `label(i)`; items a stop left
  /// unrun are counted in `not_run`, and only then is `stop` set.
  BatchSummary summary;
  std::size_t resumed = 0;  ///< items restored from the resume set
};

/// The plumbing every simulated batch (sweeps, simulator-backed Monte
/// Carlo) shares. An item in `resume` is restored for free (no simulation,
/// no item-budget charge) and re-recorded into `journal`; any other claims
/// one item of `ctx`'s budget, runs `measure(i)` in its FaultSampleScope
/// and is journaled as it finishes. An item a stop interrupted stays
/// not-run and unjournaled, so a resume re-runs it and reproduces the
/// uninterrupted batch bit-for-bit. After the join the summary is replayed
/// in index order, so the whole outcome is bit-identical for any thread
/// count. Exceptions (from `measure`, or a bad resume record) propagate
/// after the join.
BatchRun run_resumable_batch(
    std::size_t count, int threads, const support::RunContext* ctx,
    support::BatchJournal* journal,
    const std::map<std::size_t, support::PointRecord>* resume,
    const std::function<ResilientMeasurement(std::size_t)>& measure,
    const std::function<std::string(std::size_t)>& label);

/// One simulated batch item: measure_ssn_resilient on `spec` with `ctx`
/// threaded into the transient and, when `opts` leaves the step cap on
/// auto, dt_max = input rise time / 200 so the adaptive controller always
/// resolves the input ramp.
ResilientMeasurement measure_batch_item(
    const circuit::SsnBenchSpec& spec, MeasureOptions opts,
    const sim::RecoveryPolicy& policy, const support::RunContext* ctx,
    const core::SsnScenario* analytic_fallback = nullptr);

}  // namespace ssnkit::analysis
