#include "analysis/query.hpp"

#include "analysis/design.hpp"
#include "analysis/resilience.hpp"
#include "circuit/testbench.hpp"

#include <stdexcept>

namespace ssnkit::analysis {

std::string canonical_string(const Query& q) {
  // Doubles enter as exact bit patterns, and the testbench revision is part
  // of it: a result simulated by an older circuit builder never answers.
  const auto bits = [](double v) {
    return support::hex_u64(support::double_bits(v));
  };
  std::string s = "serve-v1|bench-r" + std::to_string(circuit::kTestbenchRevision);
  for (const std::string& field :
       {q.cmd, q.tech, q.golden, q.package, std::to_string(q.pads),
        bits(q.inductance), bits(q.capacitance), std::to_string(q.n_drivers),
        bits(q.rise_time), std::string{q.include_c ? 'c' : '-', q.sim ? 's' : '-'},
        std::to_string(q.samples), std::to_string(q.seed),
        std::to_string(q.max_n)})
    (s += '|') += field;
  return s;
}

process::Package package_for(const Query& q) {
  process::Package pkg = process::package_by_name(q.package);
  if (q.pads > 1) pkg = pkg.with_ground_pads(q.pads);
  if (q.inductance >= 0.0) pkg.inductance = q.inductance;
  if (q.capacitance >= 0.0) pkg.capacitance = q.capacitance;
  return pkg;
}

bool includes_c(const Query& q, const process::Package& package) {
  return q.include_c && package.capacitance > 0.0;
}

process::GoldenKind golden_kind(const std::string& name) {
  if (name == "alpha") return process::GoldenKind::kAlphaPower;
  if (name == "bsim") return process::GoldenKind::kBsimLite;
  throw std::invalid_argument("unknown golden device family '" + name +
                              "' (expected alpha or bsim)");
}

Calibration calibrate_named(const std::string& tech,
                            const std::string& golden) {
  return calibrate(process::technology_by_name(tech), golden_kind(golden));
}

std::vector<int> driver_count_ladder(int max_n) {
  std::vector<int> counts;
  for (int n = 1; n <= max_n; n += (n < 4 ? 1 : 2)) counts.push_back(n);
  return counts;
}

namespace {

void run_estimate(const Query& q, const Calibration& cal,
                  const QueryExec& exec, QueryResult& r) {
  if (!q.sim) {
    r.trust.verdict = verify::Verdict::kVerified;
    r.v_model = checked_closed_form(r.scenario, r.trust);
    return;
  }
  ResilientMeasurement m = measure_point(
      make_bench_spec(cal, r.package, q.n_drivers, q.rise_time, r.with_c),
      r.scenario, /*analytic_fallback=*/true, {}, {}, exec.run_ctx);
  r.v_model = predict_vmax(r.scenario);
  // A cancelled/deadlined run must surface as a stop, not as a silent
  // analytic degrade (the resilient driver keeps the stop error set).
  if (m.error && support::is_stop_kind(m.error->kind())) {
    r.stop = m.error->kind() == support::SolverErrorKind::kDeadlineExpired
                 ? support::StopReason::kDeadlineExpired
                 : support::StopReason::kCancelled;
    return;
  }
  if (!m.ok()) {
    if (m.error) throw *m.error;
    throw support::SolverError(support::SolverErrorKind::kHomotopyExhausted,
                               "simulation failed with no diagnostic");
  }
  r.trust = m.measurement.trust;
  r.fidelity = m.fidelity;
  r.simulated = std::move(m.measurement);
}

void run_mc(const Query& q, const QueryExec& exec, QueryResult& r) {
  MonteCarloOptions opts;
  opts.samples = q.samples;
  opts.seed = unsigned(q.seed);
  opts.threads = exec.threads;
  opts.run_ctx = exec.run_ctx;
  r.mc = monte_carlo_vmax(r.scenario, opts);
  r.stop = r.mc.stop;
  r.trust.verdict = verify::Verdict::kVerified;
  r.trust.ci95 = r.mc.ci95;
}

void run_sweep_n(const Query& q, const Calibration& cal,
                 const QueryExec& exec, QueryResult& r) {
  DriverSweepConfig config;
  config.package = r.package;
  config.input_rise_time = q.rise_time;
  config.include_package_c = r.with_c;
  config.driver_counts = driver_count_ladder(q.max_n);
  config.threads = exec.threads;
  config.run_ctx = exec.run_ctx;
  config.journal = exec.journal;
  config.resume = exec.resume;
  r.sweep = run_driver_sweep(config, cal);
  r.stop = r.sweep.summary.stop;
  r.trust = r.sweep.trust;
}

}  // namespace

QueryResult run_query(const Query& q, const Calibration& cal,
                      const QueryExec& exec) {
  QueryResult r;
  r.package = package_for(q);
  r.with_c = includes_c(q, r.package);
  if (q.cmd == "sweep-n") {
    run_sweep_n(q, cal, exec, r);
    return r;
  }
  if (q.cmd != "estimate" && q.cmd != "mc")
    throw std::invalid_argument("unknown query command '" + q.cmd + "'");
  r.scenario =
      make_scenario(cal, r.package, q.n_drivers, q.rise_time, r.with_c);
  if (q.cmd == "estimate")
    run_estimate(q, cal, exec, r);
  else
    run_mc(q, exec, r);
  return r;
}

}  // namespace ssnkit::analysis
