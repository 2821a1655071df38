#include "serve/worker.hpp"

#include "serve/handlers.hpp"
#include "serve/protocol.hpp"
#include "support/faultinject.hpp"
#include "support/runcontext.hpp"
#include "support/subprocess.hpp"

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

namespace ssnkit::serve {

#if defined(SSNKIT_FAULT_INJECTION)
namespace {

/// worker-hang: spin without ever polling a RunContext or the socket, so
/// only the supervisor's SIGKILL watchdog can end this process. The
/// volatile counter keeps the infinite loop observable (a side-effect-free
/// loop would be undefined behavior and fair game for the optimizer).
[[noreturn]] void hang_forever() {
  volatile unsigned spin = 0;
  for (;;) spin = spin + 1;
}

/// worker-oom: a bounded allocation burst (touching every page so the
/// memory is really committed). Under the worker's RLIMIT_AS cap the burst
/// throws bad_alloc well before its bound; the throw happens outside any
/// handler in this translation unit, so it escapes worker_main, hits
/// std::terminate at spawn_child's noexcept boundary, and kills the process
/// with SIGABRT — an OOM death the supervisor observes via waitpid, exactly
/// like a real one. Without an
/// address-space cap the burst completes, frees, and the request proceeds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SSNKIT_SANITIZER_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SSNKIT_SANITIZER_BUILD 1
#endif
#endif

void allocation_burst() {
#if defined(SSNKIT_SANITIZER_BUILD)
  // Sanitizer builds run without RLIMIT_AS (the shadow mappings exceed any
  // cap — see subprocess.cpp), so committing the burst for real would eat
  // host memory instead of tripping a limit. Simulate the allocation
  // failure at the same point in the code path.
  throw std::bad_alloc();
#else
  constexpr std::size_t kChunk = std::size_t(64) << 20;  // 64 MB
  constexpr std::size_t kMaxChunks = 256;                // 16 GB bound
  std::vector<std::unique_ptr<char[]>> chunks;
  chunks.reserve(kMaxChunks);
  for (std::size_t i = 0; i < kMaxChunks; ++i) {
    chunks.push_back(std::make_unique<char[]>(kChunk));
    char* p = chunks.back().get();
    for (std::size_t off = 0; off < kChunk; off += 4096) p[off] = char(1);
  }
#endif
}

}  // namespace
#endif

int worker_main(int fd) {
  // Worker-local calibration cache: fits are re-done per worker process
  // (they cannot be shared across fork once a worker is respawned), but a
  // long-lived worker amortizes them across all requests it serves.
  CalibrationCache calibrations;
  std::string inbuf;
  std::string line;
  for (;;) {
    // No read deadline: an idle worker blocks until the parent writes or
    // closes. Watchdog enforcement only applies while a request is in
    // flight, and that is the parent's job.
    const auto status = support::read_line(
        fd, inbuf, line, std::chrono::steady_clock::time_point::max());
    if (status == support::ReadLineStatus::kEof) return 0;
    if (status != support::ReadLineStatus::kLine) return 1;

    const RequestParse parsed = parse_request(line);
    if (!parsed.ok) {
      // The parent only forwards validated requests, so this is a protocol
      // bug — but answer it typed anyway so the request is never dropped.
      if (!support::write_line(fd, render_error(parsed.id, "SSN-E063",
                                                parsed.error)))
        return 1;
      continue;
    }

    {
      // Scope the fault streams by driver count: `worker-crash@13=1` makes
      // every n=13 request a deterministic poison pill while the rest of
      // the traffic stays clean. The scope is destroyed before the response
      // is written so the sites are queried exactly once per request.
      support::FaultSampleScope scope(std::size_t(parsed.request.n_drivers));
      if (SSN_FAULT_POINT(support::FaultKind::kWorkerCrash)) std::abort();
#if defined(SSNKIT_FAULT_INJECTION)
      if (SSN_FAULT_POINT(support::FaultKind::kWorkerHang)) hang_forever();
      if (SSN_FAULT_POINT(support::FaultKind::kWorkerOom)) allocation_burst();
#endif
    }

    support::RunContext ctx;
    if (!support::write_line(fd,
                             respond(parsed.request, calibrations, ctx).response))
      return 1;
  }
}

}  // namespace ssnkit::serve
