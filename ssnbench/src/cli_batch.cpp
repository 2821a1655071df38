#include "cli_batch.hpp"

#include "trace.hpp"

#include "analysis/measure.hpp"
#include "analysis/montecarlo.hpp"
#include "analysis/sweeps.hpp"
#include "circuit/netlist.hpp"
#include "cli/commands.hpp"
#include "core/l_only_model.hpp"
#include "core/lc_model.hpp"
#include "io/table.hpp"
#include "verify/physics.hpp"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

namespace ssnbench {

namespace an = ssnkit::analysis;

namespace {

const char* kind_name(CliJob::Kind k) {
  switch (k) {
    case CliJob::Kind::kMc: return "mc";
    case CliJob::Kind::kSweep: return "sweep-n";
    case CliJob::Kind::kEstimate: return "estimate --verify";
    case CliJob::Kind::kMcSim: return "mc --sim";
  }
  return "?";
}

/// A seeded permutation of 0..n-1.
std::vector<int> permutation(int n, Rng& rng) {
  std::vector<int> p(std::size_t(n), 0);
  for (int i = 0; i < n; ++i) p[std::size_t(i)] = i;
  for (int i = n - 1; i > 0; --i)
    std::swap(p[std::size_t(i)], p[std::size_t(rng.raw() % std::uint64_t(i + 1))]);
  return p;
}

/// Element `index` of an endless sequence of seeded permutations of 0..n-1.
int stratified(std::uint64_t seed, int n, std::size_t index) {
  Rng rng(seed ^ (0x632be59bd9b4e019ULL * (index / std::size_t(n) + 1)));
  return permutation(n, rng)[index % std::size_t(n)];
}

std::string format_tr(double tr) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6e", tr);
  return buf;
}

}  // namespace

const char* CliJob::name() const { return kind_name(kind); }

std::vector<std::string> CliJob::argv(int threads,
                                      const std::string& out) const {
  std::vector<std::string> a;
  switch (kind) {
    case Kind::kMc:
      a = {"mc", "--samples", std::to_string(samples), "--seed",
           std::to_string(seed), "--n", std::to_string(n)};
      break;
    case Kind::kSweep:
      a = {"sweep-n", "--max-n", std::to_string(max_n)};
      break;
    case Kind::kEstimate:
      a = {"estimate", "--verify", "--n", std::to_string(n)};
      break;
    case Kind::kMcSim:
      a = {"mc", "--sim", "--samples", std::to_string(samples), "--seed",
           std::to_string(seed), "--n", std::to_string(n)};
      break;
  }
  a.insert(a.end(), {"--tech", kTechs[std::size_t(tech)], "--golden",
                     kGoldens[std::size_t(golden)], "--tr", tr});
  if (kind != Kind::kEstimate) {
    a.push_back("--threads");
    a.push_back(std::to_string(threads));
  }
  if (!out.empty()) {
    a.push_back("--out");
    a.push_back(out);
  }
  return a;
}

int CliJob::points() const {
  switch (kind) {
    case Kind::kMc: return 0;
    case Kind::kSweep: {
      int rows = 0;
      for (int k = 1; k <= max_n; k += (k < 4 ? 1 : 2)) ++rows;
      return rows;
    }
    case Kind::kEstimate: return 1;
    case Kind::kMcSim: return samples;
  }
  return 0;
}

std::vector<CliJob> cli_script(std::uint64_t seed, std::size_t first_cycle,
                               std::size_t cycles) {
  static constexpr int kMaxN[] = {16, 24, 32, 40, 48};
  std::vector<CliJob> jobs;
  for (std::size_t c = first_cycle; c < first_cycle + cycles; ++c) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + c);
    const int pair = stratified(seed ^ 1, 6, c);
    CliJob base;
    base.tech = pair / 2;
    base.golden = pair % 2;
    base.tr = format_tr(rng.log_uniform(80e-12, 200e-12));
    CliJob mc = base;
    mc.kind = CliJob::Kind::kMc;
    mc.samples = 20000;
    mc.seed = rng.between(0, 1 << 30);
    mc.n = rng.between(1, 64);
    CliJob sweep = base;
    sweep.kind = CliJob::Kind::kSweep;
    sweep.max_n = kMaxN[stratified(seed ^ 2, 5, c)];
    jobs.push_back(mc);
    jobs.push_back(sweep);
    for (std::size_t e = 0; e < 2; ++e) {
      // n = 3k - j with k stratified over 1..16 and j in 0..2: 1..48.
      CliJob est = base;
      est.kind = CliJob::Kind::kEstimate;
      est.n = 3 * (1 + stratified(seed ^ 3, 16, 2 * c + e)) - rng.between(0, 2);
      jobs.push_back(est);
    }
    CliJob mcsim = base;
    mcsim.kind = CliJob::Kind::kMcSim;
    mcsim.samples = 16;
    mcsim.seed = rng.between(0, 1 << 30);
    mcsim.n = 8;
    jobs.push_back(mcsim);
  }
  return jobs;
}

CliRun run_job(const CliJob& job, int threads) {
  CliRun run;
  run.job = job;
  std::ostringstream out, err;
  const std::int64_t cpu0 = process_cpu_ns();
  run.start_ns = now_ns();
  run.rc = ssnkit::cli::run_cli(job.argv(threads), out, err);
  run.end_ns = now_ns();
  run.cpu_ns = process_cpu_ns() - cpu0;
  run.out = out.str();
  if (run.rc != 0) run.out += err.str();
  return run;
}

double cli_setup_once() {
  const std::int64_t cpu0 = process_cpu_ns();
  for (const char* tech : kTechs)
    for (const char* golden : kGoldens) {
      std::ostringstream out, err;
      ssnkit::cli::run_cli({"estimate", "--verify", "--n", "1", "--tech", tech,
                            "--golden", golden},
                           out, err);
    }
  return double(process_cpu_ns() - cpu0) * 1e-9;
}

JobInputs::JobInputs(const CliJob& job)
    : tech(ssnkit::process::technology_by_name(kTechs[std::size_t(job.tech)])),
      cal(an::calibrate(tech, job.golden == 1
                                  ? ssnkit::process::GoldenKind::kBsimLite
                                  : ssnkit::process::GoldenKind::kAlphaPower)),
      tr(ssnkit::circuit::parse_spice_number_ex(job.tr).value) {}

ssnkit::circuit::SsnBenchSpec JobInputs::spec(int n) const {
  ssnkit::circuit::SsnBenchSpec spec;
  spec.tech = tech;
  spec.package = pkg;
  spec.golden = cal.golden;
  spec.n_drivers = n;
  spec.input_rise_time = tr;
  spec.include_package_c = true;
  return spec;
}

namespace {

/// Rows of a TextTable rendering: first cell -> second cell, trimmed.
std::map<std::string, std::string> table_rows(const std::string& text) {
  std::map<std::string, std::string> rows;
  std::istringstream in(text);
  std::string line;
  const auto trim = [](std::string s) {
    const auto a = s.find_first_not_of(' ');
    const auto b = s.find_last_not_of(' ');
    return a == std::string::npos ? std::string() : s.substr(a, b - a + 1);
  };
  while (std::getline(in, line)) {
    if (line.size() < 2 || line[0] != '|') continue;
    const auto mid = line.find('|', 1);
    const auto end = line.find('|', mid + 1);
    if (mid == std::string::npos || end == std::string::npos) continue;
    rows[trim(line.substr(1, mid - 1))] = trim(line.substr(mid + 1, end - mid - 1));
  }
  return rows;
}

std::string check_mc(const CliRun& run) {
  const JobInputs d(run.job);
  an::MonteCarloOptions opts;
  opts.samples = run.job.samples;
  opts.seed = unsigned(run.job.seed);
  opts.threads = 1;
  const auto mc = an::monte_carlo_vmax(
      an::make_scenario(d.cal, d.pkg, run.job.n, d.tr, true), opts);
  using ssnkit::io::si_format;
  const std::map<std::string, std::string> want = {
      {"samples", std::to_string(mc.completed) + "/" + std::to_string(opts.samples)},
      {"mean", si_format(mc.mean, 4)},
      {"sigma", si_format(mc.stddev, 4)},
      {"min / max", si_format(mc.min, 4) + " / " + si_format(mc.max, 4)},
      {"p95", si_format(mc.p95, 4)},
      {"p99", si_format(mc.p99, 4)},
      {"95% CI (mean +/-)", si_format(mc.ci95, 4)},
      {"damping-region flips", si_format(100.0 * mc.region_flip_fraction, 3) + "%"}};
  const auto got = table_rows(run.out);
  for (const auto& [row, value] : want) {
    const auto it = got.find(row);
    if (it == got.end() || it->second != value)
      return "mc row '" + row + "' differs from direct threads=1 call";
  }
  return "";
}

std::string check_estimate(const CliRun& run) {
  const JobInputs d(run.job);
  const auto scenario = an::make_scenario(d.cal, d.pkg, run.job.n, d.tr, true);
  auto m = an::measure_ssn(d.spec(run.job.n));
  an::verify_measurement(m, scenario);
  const double v_model = ssnkit::core::LcModel(scenario).v_max();
  ssnkit::verify::cross_check_closed_form(v_model, m.v_max, m.trust);
  using ssnkit::io::si_format;
  const std::string lines[] = {
      "simulated max SSN: " + si_format(m.v_max, 5) + "V (" +
          std::to_string(m.stats.accepted_steps) + " steps)\n",
      "trust: " + m.trust.summary() + "\n"};
  for (const auto& line : lines)
    if (run.out.find(line) == std::string::npos)
      return "estimate line '" + line.substr(0, line.size() - 1) +
             "' missing from CLI output";
  const auto rows = table_rows(run.out);
  const auto it = rows.find("max SSN (LC model)");
  if (it == rows.end() || it->second != si_format(v_model, 5) + "V")
    return "estimate closed-form row differs from direct call";
  return "";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// Re-run a batch job with --out, compare its stdout with the timed run and
/// its full-precision CSV with the one rendered from the direct call.
std::string check_csv_job(const CliRun& run, int threads,
                          const std::string& work_dir) {
  const JobInputs d(run.job);
  std::ostringstream csv;
  csv.precision(17);
  if (run.job.kind == CliJob::Kind::kSweep) {
    an::DriverSweepConfig config;
    config.tech = d.tech;
    config.package = d.pkg;
    config.golden = d.cal.golden;
    config.input_rise_time = d.tr;
    config.include_package_c = true;
    config.driver_counts.clear();
    for (int k = 1; k <= run.job.max_n; k += (k < 4 ? 1 : 2))
      config.driver_counts.push_back(k);
    config.threads = 1;
    const auto result = an::run_driver_sweep(config);
    csv << "n,sim,this_work,vemuru,song,senthinathan,fidelity\n";
    for (const auto& r : result.rows)
      csv << r.n << ',' << r.sim << ',' << r.this_work << ',' << r.vemuru
          << ',' << r.song << ',' << r.senthinathan << ',' << int(r.fidelity)
          << '\n';
  } else {
    an::SimMonteCarloOptions opts;
    opts.samples = run.job.samples;
    opts.seed = unsigned(run.job.seed);
    opts.threads = 1;
    const auto mc =
        an::monte_carlo_vmax_sim(d.cal, d.pkg, run.job.n, d.tr, true, opts);
    csv << "index,l_factor,c_factor,rise_factor,width_factor,fidelity,v_max\n";
    for (const auto& s : mc.samples)
      if (s.completed)
        csv << s.index << ',' << s.l_factor << ',' << s.c_factor << ','
            << s.rise_factor << ',' << s.width_factor << ','
            << int(s.fidelity) << ',' << s.v_max << '\n';
  }
  const std::string path = work_dir + "/ssnbench-check.csv";
  std::ostringstream out, err;
  const int rc = ssnkit::cli::run_cli(run.job.argv(threads, path), out, err);
  const std::string artifact = read_file(path);
  std::remove(path.c_str());
  if (rc != 0) return std::string(run.job.name()) + " re-run with --out failed";
  if (out.str() != run.out)
    return std::string(run.job.name()) + " output is not reproducible";
  if (artifact != csv.str())
    return std::string(run.job.name()) +
           " CSV differs from direct threads=1 call";
  return "";
}

}  // namespace

CheckTally check_cli_runs(const std::vector<CliRun>& runs, int threads,
                          std::uint64_t sample_seed, std::size_t per_kind,
                          const std::string& work_dir) {
  CheckTally tally;
  std::vector<std::string> why(runs.size());
  std::map<int, std::vector<std::size_t>> by_kind;
  for (std::size_t i = 0; i < runs.size(); ++i)
    if (runs[i].rc == 0) by_kind[int(runs[i].job.kind)].push_back(i);
  Rng rng(sample_seed);
  for (auto& [kind, list] : by_kind) {
    for (std::size_t k = 0; k < per_kind && !list.empty(); ++k) {
      const std::size_t pick = std::size_t(rng.raw() % list.size());
      const std::size_t i = list[pick];
      list.erase(list.begin() + std::ptrdiff_t(pick));
      ++tally.sampled;
      const CliRun& run = runs[i];
      switch (run.job.kind) {
        case CliJob::Kind::kMc: why[i] = check_mc(run); break;
        case CliJob::Kind::kEstimate: why[i] = check_estimate(run); break;
        default: why[i] = check_csv_job(run, threads, work_dir); break;
      }
    }
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    ++tally.attempted;
    if (runs[i].rc != 0)
      ++tally.failed;
    else if (!why[i].empty())
      tally.mismatch(std::string(runs[i].job.name()) + ": " + why[i]);
    else
      ++tally.correct;
  }
  return tally;
}

}  // namespace ssnbench
