// The cli_batch workload: a seeded job script run through cli::run_cli
// in-process, as a closed loop with one caller and --threads = nproc.
//
// Each cycle runs, in order:
//   mc --samples 20000            (closed-form Monte Carlo, batch runner)
//   sweep-n --max-n M             (M in 16..48: one transient per row)
//   estimate --verify  x2         (n in 1..48: one serial transient each)
//   mc --sim --samples 16         (simulator-backed Monte Carlo)
// The tech/golden pair, M and the estimate n are stratified over blocks of
// cycles (every block holds each value once, in seeded order), so the cost
// of a run hardly depends on the seed.
#pragma once

#include "check.hpp"

#include "analysis/calibrate.hpp"
#include "circuit/testbench.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace ssnbench {

struct CliJob {
  enum class Kind { kMc, kSweep, kEstimate, kMcSim };
  Kind kind = Kind::kMc;
  int tech = 0;
  int golden = 0;
  int n = 8;
  int max_n = 16;
  int samples = 16;
  int seed = 12345;
  std::string tr;  ///< rise time as written on the command line

  /// Command line for run_cli; `out` adds --out FILE (sweep, mc --sim).
  std::vector<std::string> argv(int threads, const std::string& out = "") const;
  /// Simulator points: sweep rows, mc --sim samples, or one verify.
  int points() const;
  const char* name() const;
};

/// What the CLI derives from a job's flags (package pga, C included).
struct JobInputs {
  ssnkit::process::Technology tech;
  ssnkit::process::Package pkg = ssnkit::process::package_by_name("pga");
  ssnkit::analysis::Calibration cal;
  double tr = 0.0;  ///< [s] parsed as the CLI parses --tr

  explicit JobInputs(const CliJob& job);
  /// The testbench `estimate --verify --n n` simulates.
  ssnkit::circuit::SsnBenchSpec spec(int n) const;
};

/// Jobs of cycles [first_cycle, first_cycle + cycles) of the script for
/// `seed` (5 jobs per cycle).
std::vector<CliJob> cli_script(std::uint64_t seed, std::size_t first_cycle,
                               std::size_t cycles);

struct CliRun {
  CliJob job;
  int rc = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;  ///< process CPU time, every thread (process_cpu_ns)
  std::string out;
  double us() const { return double(end_ns - start_ns) * 1e-3; }
};

/// Run one job through cli::run_cli, timed.
CliRun run_job(const CliJob& job, int threads);

/// Set-up as a caller sees it: one `estimate --verify --n 1` per
/// tech/golden pair. Returns its CPU time in seconds (process_cpu_ns).
double cli_setup_once();

/// Check a seeded sample of runs (up to `per_kind` of each kind) bit for
/// bit against direct threads=1 analysis calls; every run with a non-zero
/// exit code counts as failed. Scratch files go under `work_dir`.
CheckTally check_cli_runs(const std::vector<CliRun>& runs, int threads,
                          std::uint64_t sample_seed, std::size_t per_kind,
                          const std::string& work_dir);

}  // namespace ssnbench
