// Reproduces Fig. 3 of the paper: maximum SSN voltage vs the number of
// simultaneously switching drivers, comparing this work's closed form
// against the reconstructed Vemuru '96 and Song '99 baselines (plus the
// classic Senthinathan-Prince square law), with the transient simulator as
// the HSPICE stand-in. Repeated for the 0.25 um and 0.35 um class processes
// as the paper reports ("similar results are also observed").
#include "bench_util.hpp"

#include "analysis/sweeps.hpp"
#include "io/ascii_chart.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"

#include <cstdio>

using namespace ssnkit;

namespace {

void run_for(const process::Technology& tech) {
  benchutil::section(tech.name);

  analysis::DriverSweepConfig config;
  config.tech = tech;
  config.driver_counts = {1, 2, 4, 6, 8, 10, 12, 14, 16};
  const auto result = analysis::run_driver_sweep(config);

  io::TextTable table({"N", "sim [V]", "this work [V]", "err%", "Vemuru [V]",
                       "err%", "Song [V]", "err%", "Senthinathan [V]", "err%"});
  double sum_this = 0, sum_vem = 0, sum_song = 0, sum_sp = 0;
  std::vector<double> xs;
  std::vector<double> y_sim, y_this, y_vem, y_song;
  for (const auto& r : result.rows) {
    table.add_row({double(r.n), r.sim, r.this_work, benchutil::pct(r.err_this),
                   r.vemuru, benchutil::pct(r.err_vemuru), r.song,
                   benchutil::pct(r.err_song), r.senthinathan,
                   benchutil::pct(r.err_senthinathan)},
                  4);
    sum_this += r.err_this;
    sum_vem += r.err_vemuru;
    sum_song += r.err_song;
    sum_sp += r.err_senthinathan;
    xs.push_back(double(r.n));
    y_sim.push_back(r.sim);
    y_this.push_back(r.this_work);
    y_vem.push_back(r.vemuru);
    y_song.push_back(r.song);
  }
  std::printf("%s", table.to_string().c_str());
  // Failed points are missing from the table and the means; rows that miss
  // the paper's 3 % bar are named in the trust line. Say so, as `ssnkit
  // sweep-n` does.
  if (!result.summary.all_full_fidelity())
    std::printf("# resilience: %s\n", result.summary.to_string().c_str());
  if (result.trust.verdict != verify::Verdict::kVerified)
    std::printf("# trust: %s\n", result.trust.summary().c_str());

  const double n = double(result.rows.size());
  std::printf("\nmean |error| vs simulator:  this work %.2f %%   "
              "Vemuru %.2f %%   Song %.2f %%   Senthinathan-Prince %.2f %%\n",
              benchutil::pct(sum_this / n), benchutil::pct(sum_vem / n),
              benchutil::pct(sum_song / n), benchutil::pct(sum_sp / n));
  std::printf("paper's claim (new model most accurate across N): %s\n",
              (sum_this <= sum_vem && sum_this <= sum_song && sum_this <= sum_sp)
                  ? "REPRODUCED"
                  : "NOT reproduced");

  io::ChartOptions copts;
  copts.title = "Fig.3  max SSN [V] vs N  (" + tech.name + ")";
  copts.x_label = "N drivers";
  copts.y_label = "V_max";
  std::printf("%s", io::ascii_xy_chart(xs, {y_sim, y_this, y_vem, y_song},
                                       {"sim", "this work", "Vemuru", "Song"},
                                       copts)
                        .c_str());

  io::CsvWriter csv({"n", "sim", "this_work", "vemuru", "song", "senthinathan"});
  for (const auto& r : result.rows)
    csv.add_row({double(r.n), r.sim, r.this_work, r.vemuru, r.song,
                 r.senthinathan});
  const std::string path = "fig3_driver_sweep_" + tech.name + ".csv";
  csv.write_file(path);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main() {
  benchutil::banner(
      "Fig. 3 reproduction: max SSN vs number of switching drivers");
  run_for(process::tech_180nm());
  run_for(process::tech_250nm());
  run_for(process::tech_350nm());
  return 0;
}
