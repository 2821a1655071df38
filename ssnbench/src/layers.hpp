// The traced run: per-layer metrics from spans the benchmark records around
// each call it makes into a layer, plus the counters of the public stats
// structs. The same profile runs for every workload, on that run's seeded
// inputs; the workload picks the isolation mode of the live serve phase and
// which replay trace.overhead_frac compares.
//
//   serve replay      parse_request, cache_key, a bench-owned ResultCache,
//                     CalibrationCache::get, execute_request, render_ok, the
//                     worker-hop codec, and direct core calls
//   live serve phase  open loop against a Server: submit time, the latency
//                     the replayed calls do not explain, cache counters
//   worker hop        requests through a bench-owned Supervisor
//   Monte Carlo       monte_carlo_vmax at 1 and nproc threads
//   transient replay  calibrate, make_ssn_testbench, dc_operating_point,
//                     measure_ssn with and without verify, and a
//                     stamp/refactorize/solve loop, on the cli_batch script's
//                     design points
//   live CLI phase    cli::run_cli jobs against direct-call twins
#pragma once

#include "check.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace ssnbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;  ///< sample count / percentile for the report
};

struct LayerConfig {
  std::uint64_t seed = 1;
  bool process = false;      ///< live serve phase isolation
  bool cli_workload = false; ///< trace.overhead_frac from the transient replay
  int pool_threads = 2;
  int nproc = 4;
  double open_rate = 1000.0; ///< live serve phase arrival rate [1/s]
  double live_seconds = 2.0;
  std::string work_dir = ".";
  std::string trace_out;            ///< TSV of every span; "" = none
};

struct LayerResult {
  std::vector<Metric> metrics;
  CheckTally tally;
};

LayerResult run_layer_profile(const LayerConfig& config,
                              const Calibrations& calibrations);

}  // namespace ssnbench
