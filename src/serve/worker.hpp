// The worker side of supervised process isolation: a tiny serve loop that
// runs inside each sandboxed child the Supervisor forks.
//
// One worker handles one request at a time: it reads a render_request()
// line from its socketpair, answers it with serve::respond (handlers.hpp),
// as the thread-mode server does on its pool threads, and writes back the
// line respond rendered. The line's "deadline" is the effective budget, so
// the worker cancels with SSN-E066 when thread mode would. Everything the
// protocol guarantees on the client wire therefore holds on the worker wire
// too, and the supervisor can parse worker output with split_response_line.
//
// What the worker deliberately does NOT do:
//
//   - No admission, queueing, caching, or stats — those belong to the
//     parent. A worker that duplicated them would have state worth
//     preserving, and the whole point of process isolation is that a worker
//     is disposable at any instant.
//   - No signal handling: the subprocess spawn path ignores SIGINT/SIGTERM
//     so shutdown policy stays with the supervisor (which kills workers
//     explicitly), and leaves SIGKILL — the watchdog's tool — unblockable
//     by construction.
//   - No recovery from its own death: a crash, rlimit OOM, or watchdog
//     SIGKILL simply ends the process; the parent observes it via waitpid
//     and types the failure (SSN-E068/E069) for the client.
//
// Under SSNKIT_FAULT_INJECTION the loop hosts the three process-fatal fault
// sites (worker-crash, worker-hang, worker-oom), scoped per-request by
// driver count so a chaos plan can make one request shape a deterministic
// poison pill (`worker-crash@13=1`).
#pragma once

namespace ssnkit::serve {

/// Run the worker request loop on `fd` until the parent closes its end
/// (normal shutdown) or a read error occurs. Returns the process exit code
/// (0 on EOF). Called by the Supervisor via support::spawn_child; callable
/// directly from tests with any socket/pipe fd.
int worker_main(int fd);

}  // namespace ssnkit::serve
