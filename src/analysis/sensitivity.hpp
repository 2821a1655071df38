// Sensitivity of the maximum SSN to every scenario parameter. For the
// L-only model the derivatives of Eqn 7 are analytic; the LC/Table-1 model
// uses central differences (its piecewise structure makes closed-form
// derivatives case-dependent). Sensitivities are reported in normalized
// (elasticity) form, d ln V_max / d ln p — "a 1 % increase in p moves
// V_max by this many %" — which is what a designer trades off.
#pragma once

#include "core/scenario.hpp"

namespace ssnkit::analysis {

struct SsnSensitivities {
  // Elasticities d ln V / d ln p.
  double wrt_drivers = 0.0;      ///< N (treated as continuous)
  double wrt_inductance = 0.0;   ///< L
  double wrt_capacitance = 0.0;  ///< C (0 for the L-only model)
  double wrt_slope = 0.0;        ///< S
  double wrt_k = 0.0;            ///< ASDM K
  double wrt_lambda = 0.0;       ///< ASDM lambda
  double wrt_vx = 0.0;           ///< ASDM V_x
};

/// Analytic elasticities of the L-only V_max (Eqn 7). The scenario's
/// capacitance is ignored. By Eqn 9/10, wrt_drivers == wrt_inductance ==
/// wrt_slope... except slope also moves the turn-on point; see the notes in
/// the implementation.
SsnSensitivities l_only_sensitivities(const core::SsnScenario& scenario);

/// Central-difference elasticities of the full Table 1 V_max. `rel_step`
/// is the relative perturbation per parameter.
SsnSensitivities lc_sensitivities(const core::SsnScenario& scenario,
                                  double rel_step = 1e-4);

}  // namespace ssnkit::analysis
