#include "analysis/calibrate.hpp"

#include <cmath>
#include <stdexcept>

namespace ssnkit::analysis {

double Calibration::baseline_b() const {
  const auto& p = alpha.params;
  return p.id0 / std::pow(p.vdd - p.vt0, p.alpha);
}

Calibration calibrate(const process::Technology& tech, process::GoldenKind golden,
                      double width_mult, double vg_lo_frac, double vs_hi_frac) {
  tech.validate();
  if (!(vg_lo_frac > 0.0 && vg_lo_frac < 1.0))
    throw std::invalid_argument("calibrate: vg_lo_frac must be in (0, 1)");
  if (!(vs_hi_frac > 0.0 && vs_hi_frac < 1.0))
    throw std::invalid_argument("calibrate: vs_hi_frac must be in (0, 1)");

  Calibration cal;
  cal.tech = tech;
  cal.golden = golden;
  cal.width_mult = width_mult;

  const auto device = tech.make_golden(golden, width_mult);

  devices::AsdmFitRegion region;
  region.vd = tech.vdd;
  region.vg_lo = vg_lo_frac * tech.vdd;
  region.vg_hi = tech.vdd;
  region.vs_lo = 0.0;
  region.vs_hi = vs_hi_frac * tech.vdd;
  cal.asdm = devices::fit_asdm(*device, region);

  cal.alpha = devices::fit_alpha_power(*device, tech.vdd, tech.alpha_power);
  return cal;
}

core::SsnScenario make_scenario(const Calibration& cal,
                                const process::Package& package, int n_drivers,
                                double input_rise_time, bool include_c) {
  package.validate();
  if (!(input_rise_time > 0.0))
    throw std::invalid_argument("make_scenario: input_rise_time must be > 0");
  core::SsnScenario s;
  s.n_drivers = n_drivers;
  s.inductance = package.inductance;
  s.capacitance = include_c ? package.capacitance : 0.0;
  s.vdd = cal.tech.vdd;
  s.slope = cal.tech.vdd / input_rise_time;
  s.device = cal.asdm.params;
  s.validate();
  return s;
}

circuit::SsnBenchSpec make_bench_spec(const Calibration& cal,
                                      const process::Package& package,
                                      int n_drivers, double input_rise_time,
                                      bool include_c) {
  circuit::SsnBenchSpec spec;
  spec.tech = cal.tech;
  spec.package = package;
  spec.golden = cal.golden;
  spec.n_drivers = n_drivers;
  spec.input_rise_time = input_rise_time;
  spec.include_package_c = include_c;
  return spec;
}

core::BaselineInputs make_baseline_inputs(const Calibration& cal,
                                          const process::Package& package,
                                          int n_drivers, double input_rise_time) {
  core::BaselineInputs in;
  in.n_drivers = n_drivers;
  in.inductance = package.inductance;
  in.slope = cal.tech.vdd / input_rise_time;
  in.vdd = cal.tech.vdd;
  in.b = cal.baseline_b();
  in.vt = cal.alpha.params.vt0;
  in.alpha = cal.alpha.params.alpha;
  in.validate();
  return in;
}

}  // namespace ssnkit::analysis
