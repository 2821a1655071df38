#include "analysis/resilience.hpp"

#include "core/l_only_model.hpp"
#include "core/lc_model.hpp"

#include <algorithm>
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
