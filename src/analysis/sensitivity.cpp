#include "analysis/sensitivity.hpp"

#include "analysis/design.hpp"
#include "core/l_only_model.hpp"

#include <cmath>
#include <stdexcept>

namespace ssnkit::analysis {

SsnSensitivities l_only_sensitivities(const core::SsnScenario& scenario) {
  core::SsnScenario s = scenario;
  s.capacitance = 0.0;
  s.validate();

  // V = A*(1 - e^{-x}) with A = N*L*K*S and x = (vdd - V_x)/(lambda*A).
  const double a = s.v_inf();
  const double x = (s.vdd - s.device.vx) / (s.device.lambda * a);
  const double em = std::exp(-x);
  const double denom = 1.0 - em;
  if (denom <= 0.0)
    throw std::runtime_error("l_only_sensitivities: degenerate scenario");

  SsnSensitivities out;
  // N, L, K, S all enter only through A (the beta-equivalence of Eqn 9):
  // E_A = [1 - e^{-x}(1+x)] / (1 - e^{-x}).
  const double e_a = (1.0 - em * (1.0 + x)) / denom;
  out.wrt_drivers = e_a;
  out.wrt_inductance = e_a;
  out.wrt_slope = e_a;
  out.wrt_k = e_a;
  // lambda enters only x: E_lambda = -x e^{-x} / (1 - e^{-x}).
  out.wrt_lambda = -x * em / denom;
  // V_x shifts the active ramp: E_vx = E_lambda * vx/(vdd - vx).
  out.wrt_vx = out.wrt_lambda * s.device.vx / (s.vdd - s.device.vx);
  out.wrt_capacitance = 0.0;
  return out;
}

namespace {

/// Central-difference elasticity d ln V / d ln p via a parameter mutator.
template <typename Setter>
double elasticity(const core::SsnScenario& s, double value, double rel_step,
                  const Setter& set) {
  const double h = value * rel_step;
  core::SsnScenario up = s;
  set(up, value + h);
  core::SsnScenario dn = s;
  set(dn, value - h);
  const double v_up = predict_vmax(up);
  const double v_dn = predict_vmax(dn);
  const double v0 = predict_vmax(s);
  return (v_up - v_dn) / (2.0 * h) * value / v0;
}

}  // namespace

SsnSensitivities lc_sensitivities(const core::SsnScenario& scenario,
                                  double rel_step) {
  scenario.validate();
  if (!(scenario.capacitance > 0.0))
    throw std::invalid_argument("lc_sensitivities: capacitance must be > 0 "
                                "(use l_only_sensitivities)");
  if (!(rel_step > 0.0 && rel_step < 0.1))
    throw std::invalid_argument("lc_sensitivities: rel_step out of range");

  const auto e = [&](double value, const auto& set) {
    return elasticity(scenario, value, rel_step, set);
  };
  SsnSensitivities out;
  // N is discrete in the scenario; scale through (K, lambda-preserving)
  // current instead: N*K enters every formula as a product, so perturbing K
  // with fixed N measures the same elasticity.
  out.wrt_drivers = e(scenario.device.k,
                      [](core::SsnScenario& s, double v) { s.device.k = v; });
  out.wrt_k = out.wrt_drivers;
  out.wrt_inductance = e(
      scenario.inductance,
      [](core::SsnScenario& s, double v) { s.inductance = v; });
  out.wrt_capacitance = e(
      scenario.capacitance,
      [](core::SsnScenario& s, double v) { s.capacitance = v; });
  out.wrt_slope =
      e(scenario.slope, [](core::SsnScenario& s, double v) { s.slope = v; });
  out.wrt_lambda = e(
      scenario.device.lambda,
      [](core::SsnScenario& s, double v) { s.device.lambda = v; });
  out.wrt_vx = e(scenario.device.vx,
                 [](core::SsnScenario& s, double v) { s.device.vx = v; });
  return out;
}

}  // namespace ssnkit::analysis
