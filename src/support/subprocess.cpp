#include "support/subprocess.hpp"

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

// Sanitizer runtimes (ASan/TSan shadow, allocator metadata) mmap regions
// far beyond any sane RLIMIT_AS cap, so installing one under a sanitizer
// build kills every worker at its first allocation ("Failed to mmap").
// The cap is a production containment knob; sanitizer presets exercise
// everything else about the supervisor and skip only this limit.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SSNKIT_SANITIZER_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SSNKIT_SANITIZER_BUILD 1
#endif
#endif

namespace ssnkit::support {

namespace {

// Runs in the child between fork and child_main. The parent may be
// multithreaded when a worker is respawned, so this path sticks to plain
// syscalls; the later child_main is safe because glibc reinstalls its
// malloc state across fork via atfork handlers.
void configure_child(const ChildLimits& limits) {
  // The daemon's terminal delivers SIGINT/SIGTERM to the whole foreground
  // process group; shutdown policy belongs to the supervisor, which kills
  // workers explicitly, so the workers themselves ignore both.
  ::signal(SIGINT, SIG_IGN);
  ::signal(SIGTERM, SIG_IGN);
  // Writes to a dying parent should fail with EPIPE, not kill the worker
  // before it can notice.
  ::signal(SIGPIPE, SIG_IGN);

  // A supervised crash is an expected event, not evidence to keep: no core.
  struct rlimit rl = {};
  rl.rlim_cur = 0;
  rl.rlim_max = 0;
  ::setrlimit(RLIMIT_CORE, &rl);

#if !defined(SSNKIT_SANITIZER_BUILD)
  if (limits.mem_limit_mb > 0) {
    const rlim_t bytes =
        static_cast<rlim_t>(limits.mem_limit_mb) * rlim_t{1024} * rlim_t{1024};
    rl.rlim_cur = bytes;
    rl.rlim_max = bytes;
    ::setrlimit(RLIMIT_AS, &rl);
  }
#endif
  if (limits.cpu_limit_s > 0.0) {
    // Default disposition for SIGXCPU (sent at the soft limit) terminates
    // the process; make sure no inherited handler can swallow it.
    ::signal(SIGXCPU, SIG_DFL);
    const rlim_t secs = static_cast<rlim_t>(std::ceil(limits.cpu_limit_s));
    rl.rlim_cur = secs;
    rl.rlim_max = secs + 1;  // hard limit is a straight SIGKILL backstop
    ::setrlimit(RLIMIT_CPU, &rl);
  }
}

// noexcept is the child's outermost frame: an exception escaping
// child_main (worker-oom's bad_alloc) ends here in std::terminate, i.e.
// SIGABRT, instead of unwinding into the forked copy of the parent's stack
// and running the parent's handlers and destructors in the child.
int run_child_main(const std::function<int(int fd)>& child_main,
                   int fd) noexcept {
  return child_main(fd);
}

}  // namespace

bool spawn_child(const std::function<int(int fd)>& child_main,
                 const ChildLimits& limits, ChildProcess& out,
                 std::string& err) {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    err = std::string("socketpair failed: ") + std::strerror(errno);
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    err = std::string("fork failed: ") + std::strerror(errno);
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    ::close(fds[0]);
    configure_child(limits);
    const int rc = run_child_main(child_main, fds[1]);
    // _exit, not exit: the child must not flush the parent's inherited
    // stdio buffers or run its atexit handlers.
    ::_exit(rc);
  }
  ::close(fds[1]);
  out.pid = static_cast<long>(pid);
  out.fd = fds[0];
  err.clear();
  return true;
}

bool write_line(int fd, const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n = ::send(fd, framed.data() + off, framed.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

ReadLineStatus read_line(int fd, std::string& inbuf, std::string& line,
                         std::chrono::steady_clock::time_point deadline) {
  using Clock = std::chrono::steady_clock;
  for (;;) {
    const std::size_t nl = inbuf.find('\n');
    if (nl != std::string::npos) {
      line = inbuf.substr(0, nl);
      inbuf.erase(0, nl + 1);
      return ReadLineStatus::kLine;
    }
    const Clock::time_point now = Clock::now();
    if (now >= deadline) return ReadLineStatus::kTimeout;
    // Poll in bounded slices so a caller-side state change (the watchdog
    // killing the peer) surfaces within one slice as EOF, not at deadline.
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    const int slice_ms =
        static_cast<int>(std::min<long long>(remaining.count() + 1, 100));
    struct pollfd pfd = {};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, slice_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return ReadLineStatus::kError;
    }
    if (pr == 0) continue;  // slice elapsed; re-check deadline
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ReadLineStatus::kError;
    }
    if (n == 0) return ReadLineStatus::kEof;
    inbuf.append(buf, static_cast<std::size_t>(n));
  }
}

bool wait_child(long pid, ExitStatus& out, bool block) {
  int status = 0;
  for (;;) {
    const pid_t r = ::waitpid(static_cast<pid_t>(pid), &status,
                              block ? 0 : WNOHANG);
    if (r < 0) {
      if (errno == EINTR) continue;
      // ECHILD: already reaped (or never ours). Report it as a plain exit
      // so callers cannot wedge on a pid that will never change state.
      out = ExitStatus{true, 0, 0};
      return true;
    }
    if (r == 0) return false;  // still running (WNOHANG)
    break;
  }
  if (WIFEXITED(status)) {
    out = ExitStatus{true, WEXITSTATUS(status), 0};
  } else if (WIFSIGNALED(status)) {
    out = ExitStatus{false, 0, WTERMSIG(status)};
  } else {
    out = ExitStatus{true, status, 0};
  }
  return true;
}

void kill_child(long pid) {
  if (pid > 0) ::kill(static_cast<pid_t>(pid), SIGKILL);
}

std::string describe_exit(const ExitStatus& status) {
  if (status.exited) return "exit " + std::to_string(status.code);
  const char* name = "";
  switch (status.sig) {
    case SIGKILL: name = " (SIGKILL)"; break;
    case SIGABRT: name = " (SIGABRT)"; break;
    case SIGSEGV: name = " (SIGSEGV)"; break;
    case SIGBUS: name = " (SIGBUS)"; break;
    case SIGFPE: name = " (SIGFPE)"; break;
    case SIGXCPU: name = " (SIGXCPU)"; break;
    case SIGTERM: name = " (SIGTERM)"; break;
    default: break;
  }
  return "signal " + std::to_string(status.sig) + name;
}

}  // namespace ssnkit::support
