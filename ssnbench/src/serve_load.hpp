// Live load against an in-process serve::Server, driven only through
// Server::submit_line. Used by the serve_closed_form and
// serve_closed_form_isolated workloads, and by the traced run's live phase.
//
// Phases, all against one server:
//   open loop    Poisson arrivals at a fixed rate from one generator thread;
//                each request is timed from its due time, and the generator's
//                own lateness is recorded (the traced run's live phase).
//   closed loop  a fixed window of outstanding requests; each response sink
//                submits the next request, and each request is timed from
//                its submission.
//   mc           a short closed loop of `mc` requests only, read by
//                mc_samples_per_cpu_s.
//   sim          a short closed loop of simulator-backed estimates (sim:true),
//                read by sim_points_per_cpu_s.
#pragma once

#include "check.hpp"
#include "gen.hpp"
#include "stats.hpp"

#include "serve/server.hpp"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ssnbench {

struct ServeLoadConfig {
  bool process = false;     ///< --isolate process
  int pool_threads = 2;     ///< server pool (one worker each in process mode)
  int setup_reps = 5;       ///< set-up is repeated and its median reported
  std::uint64_t seed = 1;
  double repeat_frac = 0.30;  ///< see RequestGen
};

/// Per-request timestamps of one open-loop phase.
struct OpenLoop {
  std::size_t first = 0;  ///< index of its first request in the load
  std::vector<std::int64_t> due_ns;
  std::vector<std::int64_t> submit_begin_ns;
  std::vector<std::int64_t> submit_end_ns;
  std::int64_t end_ns = 0;  ///< when the last answer arrived
};

struct ClosedLoop {
  std::size_t first = 0;
  std::size_t count = 0;
  std::int64_t start_ns = 0;
  std::int64_t stop_ns = 0;  ///< no new submissions after this
  std::uint64_t ok_in_window = 0;
  /// CPU time of this process and the server's workers from the first
  /// submission until the last answer of the phase arrived.
  std::int64_t cpu_ns = 0;
};

class ServeLoad {
 public:
  /// Set up `setup_reps` times, keeping the last: seed the generator and
  /// generate the head of the stream, then construct the server (spawning
  /// its workers) and answer one warm-up request per tech/golden pair.
  /// setup_seconds() holds the CPU time (cpu_ns) of each set-up.
  ServeLoad(const ServeLoadConfig& config,
               const Calibrations& calibrations);
  ~ServeLoad();
  ServeLoad(const ServeLoad&) = delete;
  ServeLoad& operator=(const ServeLoad&) = delete;

  const std::vector<double>& setup_seconds() const { return setup_s_; }

  /// Reserve room for `requests` more requests, so the record vectors never
  /// reallocate mid-run and the benchmark's own share of peak RSS is fixed.
  void reserve(std::size_t requests);

  OpenLoop open_loop(double seconds, double rate);
  ClosedLoop closed_loop(double seconds, int window, std::size_t cap);
  ClosedLoop mc_loop(double seconds, int window, std::size_t cap);
  ClosedLoop sim_loop(double seconds, int window, std::size_t cap);

  /// Check every answer received so far.
  CheckTally check(std::size_t sample_cap) const;

  const std::vector<GenItem>& items() const { return items_; }
  const std::vector<Answer>& answers() const { return answers_; }
  /// When each request was handed to submit_line.
  const std::vector<std::int64_t>& sent_ns() const { return sent_ns_; }
  ssnkit::serve::Server& server() { return *server_; }

  /// CPU time so far of this process and of the server's live workers
  /// (see process_cpu_ns).
  std::int64_t cpu_ns() const;

 private:
  ClosedLoop run_closed(double seconds, int window, std::vector<GenItem> batch);
  void submit(std::size_t index);
  void on_answer(std::size_t index, const std::string& line);
  void wait_answers(std::size_t upto, double timeout_s);
  GenItem next_item();

  ServeLoadConfig config_;
  const Calibrations& cal_;
  RequestGen gen_;
  std::vector<GenItem> head_;  ///< generated in set-up, sent first
  std::size_t head_sent_ = 0;
  RequestGen side_gen_;  ///< the mc and sim phases' fresh requests
  std::vector<double> setup_s_;
  std::unique_ptr<ssnkit::serve::Server> server_;
  /// Items and answers of every request sent, in send order. Each phase
  /// sizes them up front so sinks can write answers without reallocation.
  std::vector<GenItem> items_;
  std::vector<Answer> answers_;
  std::vector<std::int64_t> sent_ns_;
  std::atomic<std::size_t> answered_{0};
  // Closed-loop chaining: a sink submits items_[next_] while it is before
  // stop_ns_ and next_ < chain_end_; otherwise it retires one slot.
  std::atomic<bool> chain_{false};
  std::atomic<std::size_t> next_{0};
  std::size_t chain_end_ = 0;
  std::atomic<std::int64_t> stop_ns_{0};
  std::atomic<int> outstanding_{0};
};

/// Cache hits over lookups (serve.cache.hit_rate); 0 before any lookup.
double hit_rate(const ssnkit::serve::ResultCache::Stats& stats);

/// The server configuration a load uses.
ssnkit::serve::ServerConfig server_config(const ServeLoadConfig& config);

}  // namespace ssnbench
