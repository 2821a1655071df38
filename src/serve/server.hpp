// The serve daemon's core: bounded admission, a dispatcher that multiplexes
// queued requests onto the support::ThreadPool, per-request lifecycle
// contexts, the content-addressed result cache, and graceful drain.
//
// Robustness contract (what the fault-injection and smoke tests pin down):
//
//   - Admission is bounded: when the queue is full a request is *shed* with
//     a typed SSN-E064 response carrying a retry hint — memory stays
//     bounded no matter how hard clients push.
//   - One request's failure is that request's problem: a SolverError (or a
//     per-request deadline) is serialized back to its client as
//     SSN-E065/E066 and the daemon keeps serving. Admission resolves the
//     one deadline (the request's, else default_deadline_s) both modes use.
//   - Every *accepted* request gets exactly one response, even across a
//     drain: requests still queued when the drain deadline passes are
//     answered with SSN-E066 instead of being dropped.
//   - Results are cached by the request's content hash; the cache spills to
//     disk crash-safely and a restarted daemon warms from it.
//   - In process-isolation mode (supervisor.hpp) crashes, rlimit OOMs, and
//     non-cooperative hangs are also per-request events: the failing worker
//     is killed/reaped and its request answers typed SSN-E068/E069, with
//     repeat-offender cache keys quarantined as SSN-E070.
//
// Transport-free by design: submit_line()/ResponseSink is the whole
// surface, so the same core serves a Unix socket (socket.hpp), a stdin
// pipe, an in-process test, or the load-generator bench.
#pragma once

#include "serve/cache.hpp"
#include "serve/handlers.hpp"
#include "serve/protocol.hpp"
#include "serve/supervisor.hpp"
#include "support/parallel.hpp"
#include "support/runcontext.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ssnkit::serve {

/// Where requests execute. kThread runs them on the server's own pool
/// (fast, but a segfault or non-cooperative hang belongs to the whole
/// daemon); kProcess runs each on a supervised worker process behind a
/// SIGKILL watchdog, so crashes and hangs degrade exactly one request.
enum class IsolateMode { kThread, kProcess };

// ssn-units: default_deadline_s=s, drain_deadline_s=s, retry_after_ms=ms
struct ServerConfig {
  /// Worker threads (support::resolve_threads semantics: 0 = auto).
  int threads = 0;
  /// Admission bound: requests beyond this many waiting are shed (E064).
  std::size_t queue_capacity = 64;
  /// Result-cache entries; 0 disables caching.
  std::size_t cache_capacity = 4096;
  /// Crash-safe spill file for the cache; "" = in-memory only.
  std::string cache_file;
  /// Spill the cache every this many successful results (and on drain).
  std::size_t cache_spill_every = 256;
  /// Per-request wall-clock budget when the request names none; 0 = none.
  /// Process mode forwards it on the wire, so it must lie in [0, 3600].
  double default_deadline_s = 0.0;
  /// How long a drain waits for in-flight work before cancelling it.
  double drain_deadline_s = 5.0;
  /// Retry hint attached to SSN-E064 shed responses. Each response jitters
  /// it deterministically into [0.5, 1.5) of this base so synchronized
  /// clients don't thundering-herd the queue on retry.
  double retry_after_ms = 50.0;
  /// Mixed into the per-id retry jitter (jittered_retry_after_ms).
  unsigned retry_jitter_seed = 1;
  /// Execution isolation mode; kProcess enables the Supervisor.
  IsolateMode isolate = IsolateMode::kThread;
  /// Supervisor tuning for kProcess mode. `workers` left at 0 inherits the
  /// server's resolved thread count so every pool thread has a worker.
  SupervisorConfig supervisor;
};

/// Delivery callback for one response line (no trailing newline). Invoked
/// from worker threads; the transport owns any serialization needed.
using ResponseSink = std::function<void(const std::string& line)>;

class Server {
 public:
  explicit Server(const ServerConfig& config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Parse, validate, and admit one request line. Responds immediately
  /// (through `sink`) for malformed input (SSN-E063) and overload shed
  /// (SSN-E064); otherwise queues the request for the dispatcher. Safe from
  /// any thread.
  void submit_line(const std::string& line, ResponseSink sink);

  /// Stop admitting; every further submit_line is shed. Idempotent.
  void begin_drain();
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Graceful shutdown: stop admission, wait up to drain_deadline_s for
  /// queued + in-flight requests, then cancel stragglers (each still gets
  /// its SSN-E066 response), join the workers, and spill the cache.
  /// Idempotent; the destructor calls it.
  void finish();

  /// Warnings from the cache warm-up (SSN-W067 lines; empty when the spill
  /// file was absent or clean).
  const std::vector<std::string>& warm_warnings() const {
    return warm_warnings_;
  }

  ServerStats stats() const;
  const ResultCache& cache() const { return cache_; }

  /// The supervisor behind kProcess mode (nullptr in thread mode); tests
  /// and the chaos soak use it to pick SIGKILL victims and read counters.
  const Supervisor* supervisor() const { return supervisor_.get(); }

  /// Route supervisor lifecycle events ({"event":"worker-spawn",...} and
  /// SSN-W075/W076 warning lines) to a transport. Events emitted before a
  /// sink is set (the initial pool spawn happens in the constructor) are
  /// buffered and flushed on the first set. Pass nullptr to go back to
  /// buffering. Thread-safe.
  void set_event_sink(ResponseSink sink);

  /// A front end's serving loop: gets a locked line writer onto the
  /// daemon's own stream, returns 0 on a clean stop or an exit code.
  using Transport = std::function<int(const ResponseSink& out)>;

  /// Start-up and shutdown around one transport, shared by stdin and
  /// socket mode: print the SSN-W067 warm-up warnings on `out`, route
  /// supervisor events there, run `transport`, finish(), detach the event
  /// sink and, if the transport returned 0, print the stats line.
  int run(std::ostream& out, const Transport& transport);

  /// Serve newline-delimited requests from a stream until EOF (or until
  /// `stop_ctx` trips between lines) through run(), responses on `out`.
  int serve_stream(std::istream& in, std::ostream& out,
                   const support::RunContext* stop_ctx = nullptr);

 private:
  struct Pending {
    ServeRequest request;
    ResponseSink sink;
  };

  void dispatcher_loop();
  void process(Pending& pending);
  /// Thread mode's execute: respond() under a context the drain can cancel.
  WorkerOutcome respond_in_thread(const ServeRequest& request);
  void maybe_spill();
  void emit_event(const std::string& line);

  const ServerConfig config_;
  /// Event-sink state is declared before supervisor_ because the supervisor
  /// emits its initial worker-spawn events from inside Server's member
  /// initializer list — these must already be constructed by then.
  std::mutex ev_mu_;
  ResponseSink event_sink_;                 ///< guarded by ev_mu_
  std::vector<std::string> event_backlog_;  ///< guarded by ev_mu_
  /// Declared before pool_ on purpose: the initial worker pool forks in the
  /// constructor while this process is still single-threaded, and outlives
  /// the pool threads that call into it.
  std::unique_ptr<Supervisor> supervisor_;
  support::ThreadPool pool_;
  ResultCache cache_;
  CalibrationCache calibrations_;
  std::vector<std::string> warm_warnings_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;   ///< wakes the dispatcher
  std::condition_variable cv_done_;   ///< wakes finish() when idle
  std::deque<Pending> queue_;         ///< guarded by mu_
  bool stop_dispatcher_ = false;      ///< guarded by mu_
  bool dispatcher_done_ = false;      ///< guarded by mu_
  ServerStats stats_;                 ///< guarded by mu_
  std::uint64_t results_since_spill_ = 0;  ///< guarded by mu_

  /// Contexts of requests currently executing, so a drain past its
  /// deadline can cancel them cooperatively. Guarded by mu_.
  std::vector<support::RunContext*> active_;

  std::atomic<bool> draining_{false};
  /// Set when the drain deadline passed: queued requests answer SSN-E066
  /// immediately instead of executing.
  std::atomic<bool> drain_expired_{false};
  std::atomic<std::uint64_t> id_seq_{0};
  bool finished_ = false;  ///< finish() already ran (main thread only)

  std::thread dispatcher_;
};

}  // namespace ssnkit::serve
