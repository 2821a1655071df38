#include "serve/handlers.hpp"

#include "analysis/query.hpp"
#include "core/lc_model.hpp"

#include <chrono>
#include <string>

namespace ssnkit::serve {

std::shared_ptr<const analysis::Calibration> CalibrationCache::get(
    const std::string& tech, const std::string& golden) {
  const std::string key = tech + '|' + golden;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = fits_.find(key);
    if (it != fits_.end()) return it->second;
  }
  // Fit outside the lock: two threads may race to fit the same pair; the
  // fits are deterministic, so whichever publishes first wins and the loser
  // just did redundant work — better than serializing unrelated fits.
  auto fitted = std::make_shared<const analysis::Calibration>(
      analysis::calibrate_named(tech, golden));
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = fits_.emplace(key, std::move(fitted));
  (void)inserted;
  return it->second;
}

namespace {

/// Throw the stop that drained a query as a typed SolverError, so respond's
/// one catch site maps every cooperative stop onto SSN-E066.
void throw_stop(support::StopReason stop) {
  const auto kind = stop == support::StopReason::kDeadlineExpired
                        ? support::SolverErrorKind::kDeadlineExpired
                        : support::SolverErrorKind::kCancelled;
  throw support::SolverError(kind, "request stopped before completion");
}

std::string render_estimate(const analysis::QueryResult& r) {
  std::string out = "{";
  out += "\"n\":" + std::to_string(r.scenario.n_drivers);
  out += ",\"l\":" + json_number(r.package.inductance);
  out += ",\"c\":" + json_number(r.with_c ? r.package.capacitance : 0.0);
  out += ",\"slope\":" + json_number(r.scenario.slope);
  out += ",\"beta\":" + json_number(r.scenario.beta());
  if (r.with_c) {
    const core::LcModel model(r.scenario);
    out += ",\"model\":\"lc\"";
    out += ",\"v_max\":" + json_number(r.v_model);
    out += ",\"zeta\":" + json_number(model.zeta());
    out += ",\"case\":\"" +
           json_escape(core::to_string(model.max_case())) + "\"";
    out += ",\"c_crit\":" + json_number(r.scenario.critical_capacitance());
  } else {
    out += ",\"model\":\"l-only\"";
    out += ",\"v_max\":" + json_number(r.v_model);
  }
  if (r.simulated) {
    out += ",\"v_max_sim\":" + json_number(r.simulated->v_max);
    out += ",\"fidelity\":\"" +
           json_escape(sim::to_string(r.fidelity)) + "\"";
  }
  return out;
}

std::string render_mc(const analysis::MonteCarloResult& mc) {
  std::string out = "{";
  out += "\"samples\":" + std::to_string(mc.completed);
  out += ",\"mean\":" + json_number(mc.mean);
  out += ",\"stddev\":" + json_number(mc.stddev);
  out += ",\"min\":" + json_number(mc.min);
  out += ",\"max\":" + json_number(mc.max);
  out += ",\"p95\":" + json_number(mc.p95);
  out += ",\"p99\":" + json_number(mc.p99);
  out += ",\"ci95\":" + json_number(mc.ci95);
  out += ",\"region_flip_fraction\":" + json_number(mc.region_flip_fraction);
  return out;
}

std::string render_sweep_n(const analysis::DriverSweepResult& sweep) {
  std::string out = "{\"rows\":[";
  bool first = true;
  for (const auto& row : sweep.rows) {
    if (!first) out += ',';
    first = false;
    out += "{\"n\":" + std::to_string(row.n);
    out += ",\"sim\":" + json_number(row.sim);
    out += ",\"this_work\":" + json_number(row.this_work);
    out += ",\"vemuru\":" + json_number(row.vemuru);
    out += ",\"song\":" + json_number(row.song);
    out += ",\"senthinathan\":" + json_number(row.senthinathan);
    out += ",\"fidelity\":\"" +
           json_escape(sim::to_string(row.fidelity)) + "\"}";
  }
  out += "],\"full_fidelity\":" + std::to_string(sweep.summary.full_fidelity);
  out += ",\"recovered\":" + std::to_string(sweep.summary.recovered);
  out += ",\"analytic\":" + std::to_string(sweep.summary.analytic);
  out += ",\"failed\":" + std::to_string(sweep.summary.failed);
  return out;
}

}  // namespace

std::string execute_request(const ServeRequest& request,
                            CalibrationCache& calibrations,
                            const support::RunContext* ctx) {
  const auto cal = calibrations.get(request.tech, request.golden);
  analysis::QueryExec exec;
  exec.threads = 1;  // the daemon parallelizes across requests, not within
  exec.run_ctx = ctx;
  const analysis::QueryResult r = analysis::run_query(request, *cal, exec);
  if (r.stop != support::StopReason::kNone) throw_stop(r.stop);
  // Every result fragment ends with its trust verdict.
  std::string out = request.cmd == "estimate" ? render_estimate(r)
                    : request.cmd == "mc"     ? render_mc(r.mc)
                                              : render_sweep_n(r.sweep);
  out += ",\"trust\":" + render_trust(r.trust);
  out += "}";
  return out;
}

WorkerOutcome respond(const ServeRequest& request,
                      CalibrationCache& calibrations,
                      support::RunContext& ctx) {
  if (request.deadline_s > 0.0) ctx.set_timeout(request.deadline_s);
  const auto t0 = std::chrono::steady_clock::now();
  WorkerOutcome out;
  out.status = WorkerOutcome::Status::kError;
  try {
    out.fragment = execute_request(request, calibrations, &ctx);
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - t0);
    out.status = WorkerOutcome::Status::kOk;
    out.response = render_ok(request.id, out.fragment, /*cached=*/false,
                             elapsed.count());
  } catch (const support::SolverError& e) {
    if (support::is_stop_kind(e.kind()))
      out.status = WorkerOutcome::Status::kStopped;
    out.response = render_solver_error(request.id, e);
  } catch (const NonFiniteJsonError& e) {
    // A NaN/inf reached the serializer: the result is corrupt and is
    // refused with its own typed code rather than rendered as null.
    out.response = render_error(request.id, "SSN-E067", e.what());
  } catch (const std::exception& e) {
    out.response = render_error(request.id, "SSN-E065", e.what());
  }
  return out;
}

}  // namespace ssnkit::serve
