#include "analysis/resilience.hpp"

#include "core/l_only_model.hpp"
#include "core/lc_model.hpp"
#include "support/faultinject.hpp"
#include "support/parallel.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ssnkit::analysis {

SsnMeasurement analytic_measurement(const core::SsnScenario& scenario,
                                    std::size_t points) {
  scenario.validate();
  SsnMeasurement m;
  if (scenario.capacitance > 0.0) {
    const core::LcModel model(scenario);
    m.v_max = model.v_max();
    m.vssi = model.vn_waveform(points);
    m.i_l = model.current_waveform(points);
  } else {
    const core::LOnlyModel model(scenario);
    m.v_max = model.v_max();
    m.vssi = model.vn_waveform(points);
    m.i_l = model.current_waveform(points);
  }
  // v_max comes from the exact Table 1 / Eqn 7 formula; the peak *time* is
  // read off the sampled waveform (good to the sampling resolution).
  m.t_at_max = m.vssi.maximum_in(0.0, scenario.t_ramp_end()).t;
  m.vin = waveform::Waveform::from_function(
      [&](double t) { return std::min(scenario.slope * t, scenario.vdd); },
      0.0, scenario.t_ramp_end(), points);
  // No closed form exists for the driver output node; it stays empty.
  return m;
}

ResilientMeasurement measure_ssn_resilient(
    const circuit::SsnBenchSpec& spec, const MeasureOptions& opts,
    const sim::RecoveryPolicy& policy,
    const core::SsnScenario* analytic_fallback) {
  circuit::SsnBench bench = circuit::make_ssn_testbench(spec);
  sim::RecoveryOutcome run = sim::run_transient_resilient(
      bench.circuit, measurement_window(bench, opts), policy);

  ResilientMeasurement out;
  out.fidelity = run.fidelity;
  out.attempts = std::move(run.attempts);
  if (run.ok()) {
    out.measurement = extract_measurement(bench, run.result);
    // Physics invariants need the calibrated scenario; the analytic
    // fallback parameter is exactly that when the caller supplied one.
    if (analytic_fallback != nullptr)
      verify_measurement(out.measurement, *analytic_fallback);
    return out;
  }

  out.error = std::move(run.error);
  // A cooperative stop (cancel / deadline) is not a numerical failure: the
  // analytic rung must not paper over it, or an interrupted sample would be
  // reported as kAnalytic and a resumed run could never reproduce the
  // uninterrupted result. The driver treats stop-kind failures as "not run".
  if (out.error && support::is_stop_kind(out.error->kind())) {
    out.fidelity = sim::Fidelity::kFailed;
    return out;
  }
  if (analytic_fallback != nullptr) {
    out.measurement = analytic_measurement(*analytic_fallback);
    out.fidelity = sim::Fidelity::kAnalytic;
    out.attempts.push_back(support::RecoveryAttempt{
        "analytic", true, "degraded to the closed-form model"});
  } else {
    out.fidelity = sim::Fidelity::kFailed;
  }
  return out;
}

support::PointRecord encode_point(const ResilientMeasurement& rm) {
  support::PointRecord rec;
  rec.fidelity = int(rm.fidelity);
  rec.v_bits = support::double_bits(rm.measurement.v_max);
  rec.error_kind = rm.error ? int(rm.error->kind()) : -1;
  rec.trust = int(rm.measurement.trust.verdict);
  return rec;
}

bool decode_point(const support::PointRecord& rec, ResilientMeasurement& rm) {
  if (rec.fidelity < 0 || rec.fidelity > int(sim::Fidelity::kFailed))
    return false;
  if (rec.error_kind < -1 ||
      rec.error_kind > int(support::SolverErrorKind::kResidualDegraded))
    return false;
  // -1 = pre-trust-layer journal; such an item replays as kUnverified —
  // honest, since nothing recorded how (or whether) it was verified.
  if (rec.trust < -1 || rec.trust > int(verify::Verdict::kDegraded))
    return false;
  rm.fidelity = sim::Fidelity(rec.fidelity);
  rm.measurement.v_max = support::bits_double(rec.v_bits);
  rm.measurement.trust.verdict = rec.trust >= 0
                                     ? verify::Verdict(rec.trust)
                                     : verify::Verdict::kUnverified;
  if (rec.error_kind >= 0)
    rm.error.emplace(support::SolverErrorKind(rec.error_kind),
                     "restored from journal");
  return true;
}

BatchRun run_resumable_batch(
    std::size_t count, int threads, const support::RunContext* ctx,
    support::BatchJournal* journal,
    const std::map<std::size_t, support::PointRecord>* resume,
    const std::function<ResilientMeasurement(std::size_t)>& measure,
    const std::function<std::string(std::size_t)>& label) {
  BatchRun run;
  run.slots.resize(count);
  support::parallel_for_index(
      threads, count,
      [&](std::size_t i) {
        BatchSlot& slot = run.slots[i];
        if (resume != nullptr) {
          const auto it = resume->find(i);
          if (it != resume->end()) {
            if (!decode_point(it->second, slot.result))
              throw std::invalid_argument("journal record for item " +
                                          std::to_string(i) +
                                          " has out-of-range fields");
            slot.attempted = slot.resumed = true;
            if (journal != nullptr) journal->record(i, it->second);
            return;
          }
        }
        if (ctx != nullptr && !ctx->try_start_item()) return;

        const support::FaultSampleScope fault_scope(i);
        ResilientMeasurement rm = measure(i);
        if (rm.error && support::is_stop_kind(rm.error->kind())) return;
        if (journal != nullptr) journal->record(i, encode_point(rm));
        // The replay and the callers read numbers and verdicts only.
        rm.measurement.vssi = rm.measurement.i_l = {};
        rm.measurement.vin = rm.measurement.vout = {};
        slot.result = std::move(rm);
        slot.attempted = true;
      },
      ctx);

  // Index-order replay: note order and counters come out identical for any
  // thread count, and identical between a clean run and an interrupt +
  // resume, because the journal restores exactly the fields read here.
  for (std::size_t i = 0; i < count; ++i) {
    const BatchSlot& slot = run.slots[i];
    if (!slot.attempted) {
      ++run.summary.not_run;
      continue;
    }
    if (slot.resumed) ++run.resumed;
    run.summary.record(label(i), slot.result.fidelity, slot.result.error);
  }
  // Only a stop that cost items is reported: a deadline that expires just
  // after the last item finished did not stop anything.
  if (run.summary.not_run > 0 && ctx != nullptr)
    run.summary.stop = ctx->stop_reason();
  return run;
}

ResilientMeasurement measure_batch_item(
    const circuit::SsnBenchSpec& spec, MeasureOptions opts,
    const sim::RecoveryPolicy& policy, const support::RunContext* ctx,
    const core::SsnScenario* analytic_fallback) {
  if (opts.transient.dt_max <= 0.0)
    opts.transient.dt_max = spec.input_rise_time / 200.0;
  opts.transient.run_ctx = ctx;
  return measure_ssn_resilient(spec, opts, policy, analytic_fallback);
}

void BatchSummary::record(const std::string& label, sim::Fidelity fidelity,
                          const std::optional<support::SolverError>& error) {
  ++total;
  ++by_fidelity[sim::to_string(fidelity)];
  switch (fidelity) {
    case sim::Fidelity::kFullDevice: ++full_fidelity; break;
    case sim::Fidelity::kAnalytic: ++analytic; break;
    case sim::Fidelity::kFailed: ++failed; break;
    default: ++recovered; break;
  }
  if (error) ++by_error[support::to_string(error->kind())];
  if (fidelity != sim::Fidelity::kFullDevice) {
    std::string note = label;
    note += ": ";
    note += sim::to_string(fidelity);
    if (error) {
      note += " [";
      note += support::to_string(error->kind());
      note += "]";
    }
    notes.push_back(std::move(note));
  }
}

std::string BatchSummary::to_string() const {
  std::string s = std::to_string(total) + " runs: " +
                  std::to_string(full_fidelity) + " full-fidelity";
  if (recovered > 0) s += ", " + std::to_string(recovered) + " recovered";
  if (analytic > 0) s += ", " + std::to_string(analytic) + " analytic";
  if (failed > 0) s += ", " + std::to_string(failed) + " failed";
  if (not_run > 0) {
    s += ", " + std::to_string(not_run) + " not run (" +
         support::to_string(stop) + ")";
  }
  if (!by_error.empty()) {
    s += "; errors:";
    for (const auto& [kind, count] : by_error)
      s += " " + kind + "=" + std::to_string(count);
  }
  return s;
}

}  // namespace ssnkit::analysis
