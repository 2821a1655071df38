// Request execution for the serve daemon, shared by both isolation modes:
// execute_request answers a validated ServeRequest with analysis::run_query
// (the CLI's query path too) and renders the JSON result fragment; respond
// wraps it into the finished response line. respond is the one place an
// exception becomes a response code (SSN-E065/E066/E067): thread mode calls
// it on a pool thread, a process worker (worker.hpp) calls it in the child,
// so a client cannot tell which mode answered. Nothing here touches sockets,
// queues or global state, which keeps it directly unit-testable.
#pragma once

#include "analysis/calibrate.hpp"
#include "serve/protocol.hpp"
#include "support/runcontext.hpp"

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace ssnkit::serve {

/// Shared calibration store: fitting the ASDM + alpha-power devices costs
/// far more than one closed-form evaluation, and every request for the same
/// (tech, golden) pair needs the identical fit. Thread-safe; entries are
/// immutable once published.
class CalibrationCache {
 public:
  /// Fit (or return the already-fitted) calibration for a tech/golden pair.
  std::shared_ptr<const analysis::Calibration> get(const std::string& tech,
                                                   const std::string& golden);

 private:
  std::mutex mu_;
  std::unordered_map<std::string,
                     std::shared_ptr<const analysis::Calibration>>
      fits_;  // guarded by mu_
};

/// Execute one request and return its JSON result fragment (a complete
/// JSON value, single line). `ctx` is the request's lifecycle context; the
/// sim-backed paths poll it, and a stop surfaces as a SolverError with a
/// stop kind. Throws on failure — never returns a partial result.
std::string execute_request(const ServeRequest& request,
                            CalibrationCache& calibrations,
                            const support::RunContext* ctx);

/// Answer one request: arm `ctx` with its deadline_s (0 = none), run
/// execute_request under it and return the finished line: ok (kOk),
/// SSN-E066 for a stop (kStopped) or SSN-E065/E067 (kError).
WorkerOutcome respond(const ServeRequest& request,
                      CalibrationCache& calibrations,
                      support::RunContext& ctx);

}  // namespace ssnkit::serve
