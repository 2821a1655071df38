// Reproduces Fig. 4 of the paper: maximum SSN voltage and relative error vs
// the ground-pad parasitic capacitance.
//   (a)/(c): the paper's base package, L = 5 nH.
//   (b)/(d): ground pads doubled -> L halved, C doubled.
// Claims reproduced: the L-only model is adequate in the over/critically
// damped region but fails under-damped; the full LC model (Table 1) stays
// within a few percent everywhere; the boundary sits at
// C_crit = (N*K*lambda)^2*L/4.
#include "bench_util.hpp"

#include "analysis/sweeps.hpp"
#include "core/lc_model.hpp"
#include "io/ascii_chart.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"

#include <cmath>
#include <cstdio>

using namespace ssnkit;

namespace {

void run_for(const process::Package& package, const char* label,
             const char* suffix) {
  benchutil::section(label);

  analysis::CapacitanceSweepConfig config;
  config.package = package;
  config.n_drivers = 8;
  config.input_rise_time = 0.1e-9;
  // Log sweep around the critical capacitance.
  const auto probe = analysis::calibrate(config.tech);
  const auto base = analysis::make_scenario(probe, package, config.n_drivers,
                                            config.input_rise_time, false);
  const double c_crit = base.critical_capacitance();
  for (double mult : {0.05, 0.1, 0.2, 0.4, 0.7, 1.0, 1.5, 2.5, 4.0, 8.0, 16.0})
    config.capacitances.push_back(c_crit * mult);

  const auto result = analysis::run_capacitance_sweep(config);
  std::printf("L = %s H;  C_crit = %s F (Eqn 27)\n",
              io::si_format(package.inductance).c_str(),
              io::si_format(result.critical_capacitance).c_str());

  io::TextTable table({"C [pF]", "C/C_crit", "zeta", "region/case", "sim [V]",
                       "LC model [V]", "err% (d)", "L-only [V]", "err% (c)"});
  std::vector<double> xs, y_err_lc, y_err_lonly;
  double max_err_lc = 0.0;
  for (const auto& r : result.rows) {
    table.add_row({io::si_format(r.c * 1e12, 3),
                   io::si_format(r.c / result.critical_capacitance, 3),
                   io::si_format(r.zeta, 3), core::to_string(r.lc_case),
                   io::si_format(r.sim, 4), io::si_format(r.lc_model, 4),
                   io::si_format(benchutil::pct(r.err_lc), 3),
                   io::si_format(r.l_only, 4),
                   io::si_format(benchutil::pct(r.err_l_only), 3)});
    xs.push_back(std::log10(r.c));
    y_err_lc.push_back(benchutil::pct(r.err_lc));
    y_err_lonly.push_back(benchutil::pct(r.err_l_only));
    max_err_lc = std::max(max_err_lc, r.err_lc);
  }
  std::printf("%s", table.to_string().c_str());
  // Degraded or failed points are missing from (or approximate in) the
  // table; say so, as `ssnkit sweep-c` does.
  if (!result.summary.all_full_fidelity())
    std::printf("# resilience: %s\n", result.summary.to_string().c_str());

  std::printf("\nLC-model worst error over the sweep: %.2f %% "
              "(paper claims < 3 %% on their testbed)\n",
              benchutil::pct(max_err_lc));

  io::ChartOptions copts;
  copts.title = std::string("Fig.4 rel. error [%] vs log10(C)  ") + label;
  copts.x_label = "log10 C";
  copts.y_label = "err %";
  std::printf("%s", io::ascii_xy_chart(xs, {y_err_lc, y_err_lonly},
                                       {"LC model", "L-only"}, copts)
                        .c_str());

  io::CsvWriter csv({"c", "zeta", "sim", "lc_model", "l_only", "err_lc",
                     "err_l_only"});
  for (const auto& r : result.rows)
    csv.add_row({r.c, r.zeta, r.sim, r.lc_model, r.l_only, r.err_lc,
                 r.err_l_only});
  const std::string path = std::string("fig4_capacitance_") + suffix + ".csv";
  csv.write_file(path);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main() {
  benchutil::banner("Fig. 4 reproduction: max SSN and error vs pad capacitance");
  run_for(process::package_pga(), "(a)/(c)  PGA: L = 5 nH", "a");
  run_for(process::package_pga().with_ground_pads(2),
          "(b)/(d)  doubled ground pads: L = 2.5 nH, C base doubled", "b");
  return 0;
}
