// The serve supervisor (--isolate=process): the respawn-backoff schedule,
// crash-correlation quarantine bookkeeping, the worker wire round trip
// (render_request / split_response_line), the deterministic shed-retry
// jitter, and — on POSIX — the live containment guarantees: an exception
// escaping a child's main ends it by SIGABRT, a SIGKILLed worker degrades
// exactly its own request (SSN-E069), a drain stays bounded
// even when the in-flight worker is a non-cooperative hang, and (under the
// fault-injection preset) the watchdog and quarantine close the loop with
// SSN-E068/E070. See docs/SERVING.md's process-isolation section.
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/supervisor.hpp"
#include "support/faultinject.hpp"
#include "support/subprocess.hpp"

#if !defined(_WIN32)
#include <csignal>
#include <sys/types.h>
#include <unistd.h>
#endif

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace ssnkit;
using serve::CrashCorrelation;
using serve::Supervisor;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

class ResponseCollector {
 public:
  serve::ResponseSink sink() {
    return [this](const std::string& line) {
      std::lock_guard<std::mutex> lock(mu_);
      lines_.push_back(line);
      cv_.notify_all();
    };
  }
  std::vector<std::string> await(std::size_t count) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::seconds(60),
                 [&] { return lines_.size() >= count; });
    return lines_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::string> lines_;
};

int count_lines_with(const std::vector<std::string>& lines,
                     const std::string& needle) {
  int n = 0;
  for (const auto& line : lines)
    if (line.find(needle) != std::string::npos) ++n;
  return n;
}

// A request that keeps a worker busy for ~0.4 s (2.0 GHz core,
// RelWithDebInfo): 34 simulated design points over a 1 us ramp with a
// lightly damped package. The kill and stop tests act within a few ms of
// seeing the worker busy; if the sweep ever finishes first they fail on
// their "responded == 0" precondition, never pass vacuously.
constexpr const char* kSlowSweep =
    R"("cmd":"sweep-n","max_n":64,"golden":"bsim","tr":1e-6,"l":1e-7,"c":1e-10)";

serve::ServerConfig process_config(int workers) {
  serve::ServerConfig config;
  config.threads = 2;
  config.queue_capacity = 64;
  config.cache_capacity = 64;
  config.isolate = serve::IsolateMode::kProcess;
  config.supervisor.workers = workers;
  return config;
}

// --- backoff schedule --------------------------------------------------------

TEST(SupervisorBackoff, ExponentialScheduleIsCapped) {
  EXPECT_DOUBLE_EQ(Supervisor::restart_backoff_ms(1, 25.0, 2000.0), 25.0);
  EXPECT_DOUBLE_EQ(Supervisor::restart_backoff_ms(2, 25.0, 2000.0), 50.0);
  EXPECT_DOUBLE_EQ(Supervisor::restart_backoff_ms(3, 25.0, 2000.0), 100.0);
  EXPECT_DOUBLE_EQ(Supervisor::restart_backoff_ms(4, 25.0, 2000.0), 200.0);
  EXPECT_DOUBLE_EQ(Supervisor::restart_backoff_ms(7, 25.0, 2000.0), 1600.0);
  // 25 * 2^7 = 3200 crosses the cap.
  EXPECT_DOUBLE_EQ(Supervisor::restart_backoff_ms(8, 25.0, 2000.0), 2000.0);
  // A long crash loop must not overflow past the cap.
  EXPECT_DOUBLE_EQ(Supervisor::restart_backoff_ms(500, 25.0, 2000.0), 2000.0);
}

// --- crash correlation -------------------------------------------------------

TEST(CrashCorrelation, QuarantinesOnTheNthDeathAndJournalsTheLine) {
  const std::string journal = temp_path("quarantine_unit.jsonl");
  std::remove(journal.c_str());
  const std::string line = R"({"id":"poison","cmd":"estimate","n":13})";
  CrashCorrelation cc(2, journal);
  EXPECT_FALSE(cc.quarantined(13));
  EXPECT_EQ(cc.record(13, line), 1);
  EXPECT_FALSE(cc.quarantined(13)) << "N-1 deaths must still retry";
  EXPECT_EQ(cc.quarantined_keys(), 0u);
  EXPECT_EQ(cc.record(13, line), 2);
  EXPECT_TRUE(cc.quarantined(13)) << "the Nth death trips the threshold";
  EXPECT_EQ(cc.quarantined_keys(), 1u);
  EXPECT_FALSE(cc.quarantined(14)) << "other keys are unaffected";
  // The journaled line is the raw request, directly replayable.
  std::ifstream in(journal);
  std::string journaled;
  ASSERT_TRUE(std::getline(in, journaled));
  EXPECT_EQ(journaled, line);
  // Deaths past the threshold do not journal the line again.
  EXPECT_EQ(cc.record(13, line), 3);
  std::string extra;
  std::ifstream in2(journal);
  int rows = 0;
  while (std::getline(in2, extra)) ++rows;
  EXPECT_EQ(rows, 1);
  std::remove(journal.c_str());
}

TEST(CrashCorrelation, EmptyJournalPathDisablesTheFileNotTheThreshold) {
  CrashCorrelation cc(1, "");
  EXPECT_EQ(cc.record(5, "{}"), 1);
  EXPECT_TRUE(cc.quarantined(5));
}

// --- worker wire round trip --------------------------------------------------

TEST(SupervisorWire, RenderRequestRoundTripsBitIdentically) {
  serve::ServeRequest r;
  r.id = "w1";
  r.cmd = "mc";
  r.tech = "250nm";
  r.package = "qfp";
  r.pads = 3;
  r.inductance = 3.1e-9;
  r.n_drivers = 13;
  r.rise_time = 0.137e-9;
  r.include_c = false;
  r.samples = 257;
  r.seed = 99;
  r.deadline_s = 1.25;
  const std::string wire = serve::render_request(r);
  const auto parsed = serve::parse_request(wire);
  ASSERT_TRUE(parsed.ok) << parsed.error << " <- " << wire;
  EXPECT_EQ(serve::render_request(parsed.request), wire);
  EXPECT_EQ(parsed.request.id, "w1");
  EXPECT_EQ(parsed.request.n_drivers, 13);
  EXPECT_DOUBLE_EQ(parsed.request.inductance, 3.1e-9);
  EXPECT_DOUBLE_EQ(parsed.request.deadline_s, 1.25);
  EXPECT_FALSE(parsed.request.include_c);
  // The same request hashes to the same cache key across the process hop —
  // that is what makes crash correlation (and caching) well-defined.
  EXPECT_EQ(serve::cache_key(r), serve::cache_key(parsed.request));
}

TEST(SupervisorWire, SplitResponseLineRecoversFragmentAndCode) {
  serve::ResponseView v;
  const std::string ok =
      serve::render_ok("a", R"({"v_max":0.25,"unit":"V"})", false, 42);
  ASSERT_TRUE(serve::split_response_line(ok, v));
  EXPECT_TRUE(v.ok);
  EXPECT_EQ(v.fragment, R"({"v_max":0.25,"unit":"V"})");
  EXPECT_EQ(v.code, "");

  const std::string err = serve::render_error("a", "SSN-E065", "boom");
  ASSERT_TRUE(serve::split_response_line(err, v));
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.code, "SSN-E065");
  EXPECT_FALSE(v.cancelled);

  const std::string cancelled =
      serve::render_error("a", "SSN-E066", "deadline expired");
  ASSERT_TRUE(serve::split_response_line(cancelled, v));
  EXPECT_TRUE(v.cancelled);

  EXPECT_FALSE(serve::split_response_line("not json at all", v));
  EXPECT_FALSE(serve::split_response_line("", v));
}

// --- shed-retry jitter -------------------------------------------------------

TEST(SupervisorJitter, DeterministicAndSpreadOverHalfToThreeHalves) {
  bool saw_distinct = false;
  double first = -1.0;
  for (int i = 0; i < 100; ++i) {
    std::ostringstream id;
    id << "client-" << i;
    const double v = serve::jittered_retry_after_ms(100.0, id.str(), 7);
    EXPECT_GE(v, 50.0) << id.str();
    EXPECT_LT(v, 150.0) << id.str();
    EXPECT_DOUBLE_EQ(v, serve::jittered_retry_after_ms(100.0, id.str(), 7))
        << "jitter must be a pure function of (id, seed)";
    if (first < 0.0) first = v;
    else if (v != first) saw_distinct = true;
  }
  EXPECT_TRUE(saw_distinct) << "jitter never spread the herd";
  // A different seed re-shuffles the same id.
  bool seed_matters = false;
  for (int i = 0; i < 100 && !seed_matters; ++i) {
    std::ostringstream id;
    id << "client-" << i;
    seed_matters = serve::jittered_retry_after_ms(100.0, id.str(), 7) !=
                   serve::jittered_retry_after_ms(100.0, id.str(), 8);
  }
  EXPECT_TRUE(seed_matters);
}

#if !defined(_WIN32)

// --- live process isolation --------------------------------------------------

TEST(SupervisorProcess, ExceptionEscapingChildMainEndsInSigabrt) {
  support::ChildProcess child;
  std::string err;
  bool spawned = false;
  try {
    spawned = support::spawn_child(
        [](int) -> int { throw std::runtime_error("escapes child_main"); },
        {}, child, err);
  } catch (...) {
    // Only a child whose exception unwound out of spawn_child lands here;
    // leave before it runs the rest of the suite as a copy of this binary.
    std::_Exit(3);
  }
  ASSERT_TRUE(spawned) << err;
  ::close(child.fd);
  support::ExitStatus status;
  ASSERT_TRUE(support::wait_child(child.pid, status, /*block=*/true));
  EXPECT_FALSE(status.exited) << support::describe_exit(status);
  EXPECT_EQ(status.sig, SIGABRT) << support::describe_exit(status);
}

TEST(SupervisorProcess, ComputesAndCachesAcrossTheProcessBoundary) {
  serve::Server server(process_config(2));
  ResponseCollector rc;
  server.submit_line(R"({"id":"p1","cmd":"estimate","n":6,"tr":1e-10})",
                     rc.sink());
  rc.await(1);
  server.submit_line(R"({"id":"p2","cmd":"estimate","n":6,"tr":1e-10})",
                     rc.sink());
  const auto lines = rc.await(2);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(count_lines_with(lines, "\"ok\":true"), 2);
  EXPECT_EQ(count_lines_with(lines, "\"cached\":true"), 1);
  ASSERT_NE(server.supervisor(), nullptr);
  EXPECT_EQ(server.supervisor()->worker_pids().size(), 2u);
  EXPECT_EQ(server.stats().cache_hits, 1u);
}

TEST(SupervisorProcess, Kill9MidRequestAnswersExactlyOneE069) {
  // One worker so the victim is unambiguous; a long sweep keeps it busy.
  serve::ServerConfig config = process_config(1);
  config.cache_capacity = 0;
  serve::Server server(config);
  ResponseCollector rc;
  server.submit_line(
      R"({"id":"victim",)" + std::string(kSlowSweep) + R"(,"deadline":30})",
      rc.sink());
  // Wait until the worker provably holds the request (admission precedes
  // the socketpair write — killing an idle worker would just be retried).
  const auto t0 = std::chrono::steady_clock::now();
  while (server.supervisor()->busy_workers() == 0 &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(server.supervisor()->busy_workers(), 1u);
  ASSERT_EQ(server.stats().responded, 0u) << "sweep finished before the kill";
  const auto pids = server.supervisor()->worker_pids();
  ASSERT_EQ(pids.size(), 1u);
  ASSERT_EQ(::kill(pid_t(pids[0]), SIGKILL), 0);
  const auto lines = rc.await(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(count_lines_with(lines, "SSN-E069"), 1)
      << "the killed worker's request must fail typed exactly once: "
      << lines[0];
  // The daemon is unharmed: the slot respawns (backoff ~25 ms) and serves.
  server.submit_line(R"({"id":"after","cmd":"estimate","n":4,"tr":1e-10})",
                     rc.sink());
  const auto after = rc.await(2);
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(count_lines_with(after, "\"id\":\"after\",\"ok\":true"), 1);
  EXPECT_EQ(server.stats().worker_crashes, 1u);
  EXPECT_EQ(server.supervisor()->counters().crashes, 1u);
}

TEST(SupervisorProcess, DrainStaysBoundedWhenTheWorkerIsStopped) {
  // Regression for the drain-vs-hang hole: SIGSTOP freezes the worker into
  // a perfect non-cooperative hang (it will never poll anything again).
  // finish() must still return promptly because the drain deadline routes
  // through kill_inflight() rather than waiting on cooperation.
  serve::ServerConfig config = process_config(1);
  config.threads = 1;
  config.cache_capacity = 0;
  config.drain_deadline_s = 0.2;
  ResponseCollector rc;
  serve::ServerStats stats;
  {
    serve::Server server(config);
    server.submit_line(R"({"id":"frozen",)" + std::string(kSlowSweep) + "}",
                       rc.sink());
    const auto t0 = std::chrono::steady_clock::now();
    while (server.supervisor()->busy_workers() == 0 &&
           std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(server.supervisor()->busy_workers(), 1u);
    ASSERT_EQ(server.stats().responded, 0u);
    const auto pids = server.supervisor()->worker_pids();
    ASSERT_EQ(pids.size(), 1u);
    ASSERT_EQ(::kill(pid_t(pids[0]), SIGSTOP), 0);
    const auto drain0 = std::chrono::steady_clock::now();
    server.finish();
    const double drain_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      drain0)
            .count();
    EXPECT_LT(drain_s, 5.0) << "drain hung on a stopped worker";
    stats = server.stats();
  }
  const auto lines = rc.await(1);
  ASSERT_EQ(lines.size(), 1u) << "the frozen request went unanswered";
  EXPECT_EQ(count_lines_with(lines, "\"ok\":false"), 1) << lines[0];
  EXPECT_EQ(stats.responded, 1u);
}

TEST(SupervisorProcess, ServerDefaultDeadlineCancelsCooperatively) {
  // The server's default deadline is the request's one budget in process
  // mode too: the worker cancels itself at it (SSN-E066, as thread mode
  // does), and the watchdog's SIGKILL at deadline + grace never fires.
  serve::ServerConfig config = process_config(2);
  config.default_deadline_s = 0.05;
  config.supervisor.grace_s = 0.05;
  ResponseCollector rc;
  std::mutex events_mu;
  std::vector<std::string> events;
  serve::ServerStats stats;
  serve::Supervisor::Counters counters;
  {
    serve::Server server(config);
    server.set_event_sink([&](const std::string& line) {
      std::lock_guard<std::mutex> lock(events_mu);
      events.push_back(line);
    });
    server.submit_line(R"({"id":"a",)" + std::string(kSlowSweep) + "}",
                       rc.sink());
    server.submit_line(R"({"id":"b",)" + std::string(kSlowSweep) + "}",
                       rc.sink());
    rc.await(2);
    stats = server.stats();
    counters = server.supervisor()->counters();
    server.finish();
    server.set_event_sink(nullptr);
  }
  const auto lines = rc.await(2);
  ASSERT_EQ(lines.size(), 2u);
  for (const auto& line : lines) {
    EXPECT_NE(line.find("\"code\":\"SSN-E066\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"kind\":\"deadline-expired\""), std::string::npos)
        << line;
  }
  EXPECT_EQ(stats.cancelled, 2u);
  EXPECT_EQ(stats.worker_timeouts, 0u);
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_EQ(counters.timeouts, 0u);
  EXPECT_EQ(counters.spawns, 2u) << "a worker was killed and respawned";
  EXPECT_EQ(count_lines_with(events, "SSN-W075"), 0);
  EXPECT_EQ(count_lines_with(events, "SSN-W076"), 0);
}

TEST(SupervisorProcess, IsolationModesAnswerIdentically) {
  // Both modes answer through serve::respond under the same deadline, so a
  // request list gets the same bytes back from either (elapsed_us aside)
  // and the same stats line. Requests go one at a time on one pool thread,
  // so the cache sees the same order in both runs.
  const std::vector<std::string> requests = {
      R"({"id":"lc","cmd":"estimate","n":8,"tr":1e-10})",
      R"({"id":"lonly","cmd":"estimate","n":8,"tr":1e-10,"include_c":false})",
      R"({"id":"c0","cmd":"estimate","n":5,"c":0})",
      R"({"id":"sim","cmd":"estimate","n":6,"tr":2e-10,"sim":true})",
      R"({"id":"mc","cmd":"mc","samples":400,"seed":9})",
      R"({"id":"sweep","cmd":"sweep-n","max_n":3})",
      R"({"id":"again","cmd":"estimate","n":8,"tr":1e-10})",
      R"({"id":"late",)" + std::string(kSlowSweep) + R"(,"deadline":0.01})",
      R"({"id":"bad","cmd":"mc","sim":true})",
  };
  const auto answer = [&](serve::IsolateMode mode, std::string& stats_line) {
    serve::ServerConfig config = process_config(1);
    config.threads = 1;
    config.isolate = mode;
    serve::Server server(config);
    ResponseCollector rc;
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      server.submit_line(requests[i], rc.sink());
      lines = rc.await(i + 1);
    }
    server.finish();
    stats_line = serve::render_stats(server.stats());
    for (auto& line : lines) {
      const std::size_t at = line.find("\"elapsed_us\":");
      if (at == std::string::npos) continue;
      const std::size_t end = line.find(',', at);
      line.erase(at, end + 1 - at);
    }
    return lines;
  };
  std::string thread_stats, process_stats;
  const auto thread = answer(serve::IsolateMode::kThread, thread_stats);
  const auto process = answer(serve::IsolateMode::kProcess, process_stats);
  ASSERT_EQ(thread.size(), requests.size());
  ASSERT_EQ(process.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i)
    EXPECT_EQ(thread[i], process[i]) << requests[i];
  EXPECT_EQ(thread_stats, process_stats);
  // The list covers every outcome it means to: computed, cached, the
  // deadline's E066 and the admission-time E063.
  EXPECT_EQ(count_lines_with(thread, "\"ok\":true,\"cached\":false"), 6);
  EXPECT_EQ(count_lines_with(thread, "\"ok\":true,\"cached\":true"), 1);
  EXPECT_EQ(count_lines_with(thread, "SSN-E066"), 1);
  EXPECT_EQ(count_lines_with(thread, "SSN-E063"), 1);
}

// --- injected worker faults (fault-injection preset only) --------------------

TEST(SupervisorFaultInjection, PoisonKeyIsQuarantinedOnTheNthCrash) {
  if (!support::kFaultInjectionEnabled)
    GTEST_SKIP() << "needs -DSSNKIT_FAULT_INJECTION=ON (fault-injection preset)";
  // Workers fork from this process, inheriting the armed plan; only the
  // n=13 design point crashes (the worker scopes requests by n_drivers).
  auto& injector = support::FaultInjector::instance();
  support::FaultPlan plan;
  plan.probability = 1.0;
  plan.only_sample = 13;
  injector.arm(support::FaultKind::kWorkerCrash, plan);

  const std::string journal = temp_path("quarantine_e2e.jsonl");
  std::remove(journal.c_str());
  serve::ServerConfig config = process_config(2);
  config.cache_capacity = 0;
  config.supervisor.quarantine_after = 2;
  config.supervisor.quarantine_file = journal;
  serve::Server server(config);
  ResponseCollector rc;
  const char* poison = R"({"id":"q%d","cmd":"estimate","n":13,"tr":1e-10})";
  for (int i = 0; i < 3; ++i) {
    char line[96];
    std::snprintf(line, sizeof line, poison, i);
    server.submit_line(line, rc.sink());
    rc.await(std::size_t(i) + 1);  // keep the deaths strictly ordered
  }
  const auto lines = rc.await(3);
  injector.disarm_all();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(count_lines_with(lines, "SSN-E069"), 2)
      << "the first N-1 crashes must still be retried";
  EXPECT_EQ(count_lines_with(lines, "SSN-E070"), 1)
      << "the Nth crash must quarantine the key";
  EXPECT_EQ(server.supervisor()->correlation().quarantined_keys(), 1u);
  // A healthy design point keeps serving.
  server.submit_line(R"({"id":"fine","cmd":"estimate","n":8,"tr":1e-10})",
                     rc.sink());
  EXPECT_EQ(count_lines_with(rc.await(4), "\"id\":\"fine\",\"ok\":true"), 1);
  // The journal holds the raw poison line, ready for offline replay.
  std::ifstream in(journal);
  std::string journaled;
  ASSERT_TRUE(std::getline(in, journaled)) << "quarantine journal is empty";
  EXPECT_NE(journaled.find("\"n\":13"), std::string::npos) << journaled;
  EXPECT_TRUE(serve::parse_request(journaled).ok) << journaled;
  std::remove(journal.c_str());
}

TEST(SupervisorFaultInjection, WatchdogKillsANonCooperativeHangWithE068) {
  if (!support::kFaultInjectionEnabled)
    GTEST_SKIP() << "needs -DSSNKIT_FAULT_INJECTION=ON (fault-injection preset)";
  auto& injector = support::FaultInjector::instance();
  support::FaultPlan plan;
  plan.probability = 1.0;
  plan.only_sample = 11;
  injector.arm(support::FaultKind::kWorkerHang, plan);

  serve::ServerConfig config = process_config(1);
  config.cache_capacity = 0;
  config.supervisor.grace_s = 0.2;
  serve::Server server(config);
  ResponseCollector rc;
  server.submit_line(
      R"({"id":"hung","cmd":"estimate","n":11,"tr":1e-10,"deadline":0.2})",
      rc.sink());
  const auto lines = rc.await(1);
  injector.disarm_all();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(count_lines_with(lines, "SSN-E068"), 1) << lines[0];
  EXPECT_EQ(server.stats().worker_timeouts, 1u);
  EXPECT_EQ(server.supervisor()->counters().timeouts, 1u);
  // The hung slot respawned; the daemon keeps serving.
  server.submit_line(R"({"id":"next","cmd":"estimate","n":5,"tr":1e-10})",
                     rc.sink());
  EXPECT_EQ(count_lines_with(rc.await(2), "\"id\":\"next\",\"ok\":true"), 1);
}

TEST(SupervisorFaultInjection, RlimitOomDiesTypedNotSilent) {
  if (!support::kFaultInjectionEnabled)
    GTEST_SKIP() << "needs -DSSNKIT_FAULT_INJECTION=ON (fault-injection preset)";
  auto& injector = support::FaultInjector::instance();
  support::FaultPlan plan;
  plan.probability = 1.0;
  plan.only_sample = 12;
  injector.arm(support::FaultKind::kWorkerOom, plan);

  serve::ServerConfig config = process_config(1);
  config.cache_capacity = 0;
  config.supervisor.mem_limit_mb = 256;
  serve::Server server(config);
  ResponseCollector rc;
  server.submit_line(R"({"id":"oom","cmd":"estimate","n":12,"tr":1e-10})",
                     rc.sink());
  const auto lines = rc.await(1);
  injector.disarm_all();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(count_lines_with(lines, "SSN-E069"), 1) << lines[0];
  EXPECT_EQ(server.stats().worker_crashes, 1u);
}

#endif  // !defined(_WIN32)

}  // namespace
