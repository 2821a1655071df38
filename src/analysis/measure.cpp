#include "analysis/measure.hpp"

#include <stdexcept>

namespace ssnkit::analysis {

SsnMeasurement measure_ssn(const circuit::SsnBenchSpec& spec,
                           const MeasureOptions& opts) {
  circuit::SsnBench bench = circuit::make_ssn_testbench(spec);
  return measure_ssn(bench, opts);
}

sim::TransientOptions measurement_window(const circuit::SsnBench& bench,
                                         const MeasureOptions& opts) {
  if (!(opts.overshoot_factor >= 1.0))
    throw std::invalid_argument("measure_ssn: overshoot_factor must be >= 1");
  sim::TransientOptions topts = opts.transient;
  topts.t_start = 0.0;
  topts.t_stop = bench.t_ramp_end * opts.overshoot_factor;
  return topts;
}

SsnMeasurement extract_measurement(const circuit::SsnBench& bench,
                                   const sim::TransientResult& result) {
  SsnMeasurement m;
  m.stats = result.stats;
  m.vssi = result.waveform(bench.vssi_node);
  m.i_l = result.waveform("I(" + bench.inductor_name + ")");
  m.vin = result.waveform(bench.input_nodes.front());
  m.vout = result.waveform(bench.output_nodes.front());
  const auto peak = m.vssi.maximum_in(0.0, bench.t_ramp_end);
  m.v_max = peak.value;
  m.t_at_max = peak.t;
  m.trust = result.trust;
  return m;
}

SsnMeasurement measure_ssn(circuit::SsnBench& bench, const MeasureOptions& opts) {
  const sim::TransientResult result =
      sim::run_transient(bench.circuit, measurement_window(bench, opts));
  return extract_measurement(bench, result);
}

void verify_measurement(SsnMeasurement& m, const core::SsnScenario& scenario,
                        const verify::PhysicsCheckOptions& opts) {
  const verify::PhysicsFindings findings = verify::check_ground_path(
      scenario, m.vssi, m.i_l, m.v_max, m.t_at_max, opts);
  verify::apply(findings, m.trust);
}

}  // namespace ssnkit::analysis
