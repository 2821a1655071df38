// The serve daemon: JSON wire parser, request validation, the result cache
// (LRU + crash-safe spill + torn-record tolerance), and the server core's
// robustness contract — bounded admission (SSN-E064), per-request deadlines
// (SSN-E066), failure isolation (SSN-E065), and the every-accepted-request-
// gets-exactly-one-response drain guarantee. See docs/SERVING.md.
#include "circuit/testbench.hpp"
#include "serve/cache.hpp"
#include "serve/handlers.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "support/atomic_file.hpp"
#include "support/faultinject.hpp"
#include "support/journal.hpp"

#if !defined(_WIN32)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#endif

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace ssnkit;
using serve::parse_json;
using serve::parse_request;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

// --- JSON parser -------------------------------------------------------------

TEST(ServeJson, ParsesScalarsObjectsAndArrays) {
  const auto p = parse_json(
      R"({"a":1.5,"b":"x\n\"y\"","c":[true,false,null],"d":{"e":-2e-3}})");
  ASSERT_TRUE(p.ok) << p.error;
  ASSERT_TRUE(p.value.is_object());
  ASSERT_NE(p.value.find("a"), nullptr);
  EXPECT_DOUBLE_EQ(p.value.find("a")->number, 1.5);
  EXPECT_EQ(p.value.find("b")->string, "x\n\"y\"");
  ASSERT_EQ(p.value.find("c")->elements.size(), 3u);
  EXPECT_TRUE(p.value.find("c")->elements[0].boolean);
  EXPECT_EQ(p.value.find("c")->elements[2].kind, serve::JsonValue::Kind::kNull);
  EXPECT_DOUBLE_EQ(p.value.find("d")->find("e")->number, -2e-3);
}

TEST(ServeJson, ParsesUnicodeEscapes) {
  const auto p = parse_json(R"({"s":"\u0041\u00e9"})");
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.value.find("s")->string, "A\xc3\xa9");
}

TEST(ServeJson, RejectsMalformedInput) {
  for (const char* bad : {
           "",                      // empty
           "{",                     // unterminated object
           "{\"a\":1,}",            // trailing comma
           "{\"a\":1} x",           // trailing garbage
           "{\"a\":1,\"a\":2}",     // duplicate key
           "{\"a\":01}",            // leading zero
           "{\"a\":+1}",            // leading plus
           "{\"a\":.5}",            // bare fraction
           "{\"a\":\"\x01\"}",      // raw control char in string
           "{\"a\":\"\\ud800\"}",   // lone surrogate
           "{\"a\":\"\\q\"}",       // unknown escape
           "[1, 2",                 // unterminated array
           "nul",                   // truncated literal
       }) {
    const auto p = parse_json(bad);
    EXPECT_FALSE(p.ok) << "accepted: " << bad;
    EXPECT_FALSE(p.error.empty()) << bad;
  }
}

TEST(ServeJson, EnforcesDepthAndSizeBounds) {
  std::string deep;
  for (int i = 0; i < 40; ++i) deep += "[";
  EXPECT_FALSE(parse_json(deep).ok);
  EXPECT_FALSE(parse_json("[1]", /*max_depth=*/16, /*max_bytes=*/2).ok);
  EXPECT_TRUE(parse_json("[[[1]]]", /*max_depth=*/3).ok);
  EXPECT_FALSE(parse_json("[[[[1]]]]", /*max_depth=*/3).ok);
}

TEST(ServeJson, EscapeAndNumberRendering) {
  EXPECT_EQ(serve::json_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(serve::json_number(0.5), "0.5");
  // Non-finite doubles have no JSON representation. The strict renderer
  // refuses them with a typed error (the server maps it onto SSN-E067);
  // only the explicit _or_null variant may degrade them, and it says so.
  EXPECT_THROW(serve::json_number(std::numeric_limits<double>::quiet_NaN()),
               serve::NonFiniteJsonError);
  EXPECT_THROW(serve::json_number(std::numeric_limits<double>::infinity()),
               serve::NonFiniteJsonError);
  EXPECT_THROW(serve::json_number(-std::numeric_limits<double>::infinity()),
               serve::NonFiniteJsonError);
  EXPECT_EQ(serve::json_number_or_null(
                std::numeric_limits<double>::quiet_NaN()),
            "null");
  EXPECT_EQ(serve::json_number_or_null(0.5), "0.5");
  // Round-trip precision: the rendered number reparses to the same bits.
  const double v = 0.1 + 0.2;
  std::string array = serve::json_number(v);
  array.insert(array.begin(), '[');
  array.push_back(']');
  const auto p = parse_json(array);
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(support::double_bits(p.value.elements[0].number),
            support::double_bits(v));
}

// --- protocol ----------------------------------------------------------------

TEST(ServeProtocol, ParsesFullRequestAndDefaults) {
  const auto full = parse_request(
      R"({"id":"r1","cmd":"mc","tech":"250nm","golden":"bsim","package":"qfp",)"
      R"("pads":4,"l":5e-9,"c":1e-12,"n":16,"tr":2e-10,"include_c":false,)"
      R"("samples":5000,"seed":7,"deadline":2.5})");
  ASSERT_TRUE(full.ok) << full.error;
  EXPECT_EQ(full.request.id, "r1");
  EXPECT_EQ(full.request.cmd, "mc");
  EXPECT_EQ(full.request.tech, "250nm");
  EXPECT_EQ(full.request.golden, "bsim");
  EXPECT_EQ(full.request.pads, 4);
  EXPECT_DOUBLE_EQ(full.request.inductance, 5e-9);
  EXPECT_DOUBLE_EQ(full.request.capacitance, 1e-12);
  EXPECT_EQ(full.request.n_drivers, 16);
  EXPECT_FALSE(full.request.include_c);
  EXPECT_EQ(full.request.samples, 5000);
  EXPECT_DOUBLE_EQ(full.request.deadline_s, 2.5);

  const auto minimal = parse_request(R"({"cmd":"estimate"})");
  ASSERT_TRUE(minimal.ok) << minimal.error;
  EXPECT_EQ(minimal.request.tech, "180nm");
  EXPECT_EQ(minimal.request.n_drivers, 8);
  EXPECT_TRUE(minimal.request.include_c);
  EXPECT_LT(minimal.request.inductance, 0.0);  // "use the package default"
}

TEST(ServeProtocol, RejectsBadRequestsWithRecoveredId) {
  for (const char* bad : {
           "not json at all",
           "[1,2,3]",                                  // not an object
           R"({"id":"x"})",                            // missing cmd
           R"({"id":"x","cmd":"explode"})",            // unknown cmd
           R"({"id":"x","cmd":"mc","bogus":1})",       // unknown key
           R"({"id":"x","cmd":"mc","n":0})",           // below range
           R"({"id":"x","cmd":"mc","n":257})",         // above range
           R"({"id":"x","cmd":"mc","samples":300000})",
           R"({"id":"x","cmd":"mc","tr":"fast"})",     // wrong type
           R"({"id":"x","cmd":"mc","tech":"90nm"})",   // unknown tech
           R"({"id":"x","cmd":"mc","package":"bga"})", // unknown package
           R"({"id":"x","cmd":"mc","golden":"spice"})",
           R"({"id":1,"cmd":"mc"})",                   // id must be a string
       }) {
    const auto p = parse_request(bad);
    EXPECT_FALSE(p.ok) << "accepted: " << bad;
    EXPECT_FALSE(p.error.empty()) << bad;
  }
  // `sim` selects the simulator for estimate only; on mc and sweep-n it
  // would be a silently ignored flag with its own cache key.
  for (const char* bad : {R"({"id":"x","cmd":"mc","sim":true})",
                          R"({"id":"x","cmd":"sweep-n","sim":true})"}) {
    const auto p = parse_request(bad);
    EXPECT_FALSE(p.ok) << "accepted: " << bad;
    EXPECT_EQ(p.error, "field 'sim' applies only to estimate") << bad;
    EXPECT_EQ(p.id, "x");
  }
  EXPECT_TRUE(parse_request(R"({"cmd":"mc","sim":false})").ok);
  // The id still comes back when the line parsed far enough to hold one, so
  // the SSN-E063 response stays correlatable.
  const auto p = parse_request(R"({"id":"find-me","cmd":"nope"})");
  EXPECT_FALSE(p.ok);
  EXPECT_EQ(p.id, "find-me");
}

TEST(ServeProtocol, CacheKeyIgnoresIdAndDeadlineOnly) {
  const auto base = parse_request(R"({"id":"a","cmd":"estimate","n":8})");
  const auto same = parse_request(
      R"({"id":"b","cmd":"estimate","n":8,"deadline":9})");
  const auto other = parse_request(R"({"id":"a","cmd":"estimate","n":9})");
  ASSERT_TRUE(base.ok && same.ok && other.ok);
  EXPECT_EQ(serve::cache_key(base.request), serve::cache_key(same.request));
  EXPECT_NE(serve::cache_key(base.request), serve::cache_key(other.request));
  // The canonical string distinguishes bit-different doubles exactly.
  auto tweaked = base.request;
  tweaked.rise_time = std::nextafter(tweaked.rise_time, 1.0);
  EXPECT_NE(serve::cache_key_string(base.request),
            serve::cache_key_string(tweaked));
}

TEST(ServeProtocol, CacheKeyStringIsPinned) {
  // The exact bytes of the canonical string (and its FNV-1a key) are what a
  // spill file written by an earlier build is looked up with: a change here
  // silently turns every spilled entry into a miss. Pinned to literals.
  const auto est = parse_request(
      R"({"id":"x","cmd":"estimate","tech":"250nm","golden":"bsim",)"
      R"("package":"qfp","pads":2,"l":3e-9,"n":12,"tr":2e-10,"sim":true,)"
      R"("deadline":4})");
  ASSERT_TRUE(est.ok) << est.error;
  EXPECT_EQ(serve::cache_key_string(est.request),
            "serve-v1|bench-r3|estimate|250nm|bsim|qfp|2|3e29c511dc3a41df|"
            "bff0000000000000|12|3deb7cdfd9d7bdbb|cs|1000|12345|16");
  EXPECT_EQ(serve::cache_key(est.request), 0x5a81d3958f21f14fULL);
  const auto mc = parse_request(
      R"({"cmd":"mc","c":0,"include_c":false,"samples":500,"seed":7})");
  ASSERT_TRUE(mc.ok) << mc.error;
  EXPECT_EQ(serve::cache_key_string(mc.request),
            "serve-v1|bench-r3|mc|180nm|alpha|pga|1|bff0000000000000|"
            "0000000000000000|8|3ddb7cdfd9d7bdbb|--|500|7|16");
  EXPECT_EQ(serve::cache_key(mc.request), 0x71d4cc836b8a212fULL);
}

TEST(ServeProtocol, RendersResponsesAsSingleJsonLines) {
  const std::string ok = serve::render_ok("r1", "{\"x\":1}", true, 42);
  EXPECT_TRUE(parse_json(ok).ok) << ok;
  EXPECT_NE(ok.find("\"cached\":true"), std::string::npos);
  EXPECT_NE(ok.find("\"result\":{\"x\":1}"), std::string::npos);

  const std::string err =
      serve::render_error("r\"2", "SSN-E063", "bad \"thing\"");
  EXPECT_TRUE(parse_json(err).ok) << err;
  EXPECT_NE(err.find("SSN-E063"), std::string::npos);

  const std::string shed = serve::render_overloaded("r3", 50.0);
  EXPECT_TRUE(parse_json(shed).ok) << shed;
  EXPECT_NE(shed.find("SSN-E064"), std::string::npos);
  EXPECT_NE(shed.find("\"retry_after_ms\":50"), std::string::npos);

  // Stop kinds map to SSN-E066 and are retryable; real failures to E065.
  const std::string cancelled = serve::render_solver_error(
      "r4", support::SolverError(support::SolverErrorKind::kDeadlineExpired,
                                 "too slow"));
  EXPECT_TRUE(parse_json(cancelled).ok) << cancelled;
  EXPECT_NE(cancelled.find("SSN-E066"), std::string::npos);
  EXPECT_NE(cancelled.find("\"retryable\":true"), std::string::npos);
  const std::string failed = serve::render_solver_error(
      "r5", support::SolverError(support::SolverErrorKind::kSingularMatrix,
                                 "singular"));
  EXPECT_TRUE(parse_json(failed).ok) << failed;
  EXPECT_NE(failed.find("SSN-E065"), std::string::npos);

  serve::ServerStats stats;
  stats.accepted = 3;
  const std::string line = serve::render_stats(stats);
  ASSERT_TRUE(parse_json(line).ok) << line;
  EXPECT_DOUBLE_EQ(parse_json(line).value.find("accepted")->number, 3.0);
}

// --- result cache ------------------------------------------------------------

TEST(ServeCache, LruEvictsLeastRecentlyUsed) {
  serve::ResultCache cache(2);
  cache.put(1, "one");
  cache.put(2, "two");
  EXPECT_EQ(cache.get(1).value_or(""), "one");  // bumps 1 over 2
  cache.put(3, "three");                        // evicts 2
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_EQ(cache.get(1).value_or(""), "one");
  EXPECT_EQ(cache.get(3).value_or(""), "three");
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ServeCache, ZeroCapacityDisablesAndNewlinePayloadsRejected) {
  serve::ResultCache off(0);
  off.put(1, "x");
  EXPECT_FALSE(off.get(1).has_value());
  EXPECT_EQ(off.size(), 0u);

  serve::ResultCache cache(4);
  cache.put(1, "torn\npayload");  // would corrupt the line-oriented spill
  EXPECT_FALSE(cache.get(1).has_value());
}

TEST(ServeCache, SaveLoadRoundTripAndExistingEntriesWin) {
  const std::string path = temp_path("serve_cache_roundtrip");
  std::remove(path.c_str());
  {
    serve::ResultCache cache(8);
    cache.put(10, "{\"v\":1}");
    cache.put(11, "{\"v\":2}");
    cache.save(path);
  }
  serve::ResultCache warmed(8);
  warmed.put(11, "{\"v\":99}");  // pre-existing entry must not be clobbered
  const auto warnings = warmed.load(path);
  EXPECT_TRUE(warnings.empty());
  EXPECT_EQ(warmed.get(10).value_or(""), "{\"v\":1}");
  EXPECT_EQ(warmed.get(11).value_or(""), "{\"v\":99}");
  EXPECT_EQ(warmed.stats().warmed, 1u);
  std::remove(path.c_str());
}

TEST(ServeCache, MissingSpillIsSilentColdStart) {
  serve::ResultCache cache(4);
  EXPECT_TRUE(cache.load(temp_path("no_such_spill")).empty());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ServeCache, TornTrailingRecordDiscardedWithWarning) {
  const std::string path = temp_path("serve_cache_torn");
  {
    serve::ResultCache cache(8);
    cache.put(10, "{\"v\":1}");
    cache.put(11, "{\"v\":2}");
    cache.save(path);
  }
  // Tear the file mid-record, as a crash mid-write would.
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  std::string body = ss.str();
  body.resize(body.size() - 9);  // chop the trailing newline + record tail
  std::ofstream(path, std::ios::binary | std::ios::trunc) << body;

  serve::ResultCache warmed(8);
  const auto warnings = warmed.load(path);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("SSN-W067"), std::string::npos) << warnings[0];
  EXPECT_EQ(warmed.size(), 1u);  // the intact record still loads
  EXPECT_EQ(warmed.stats().discarded_on_load, 1u);
  std::remove(path.c_str());
}

TEST(ServeCache, ChecksumMismatchDiscardsOnlyTheBadEntry) {
  const std::string path = temp_path("serve_cache_bitrot");
  {
    serve::ResultCache cache(8);
    cache.put(10, "{\"v\":1}");
    cache.put(11, "{\"v\":2}");
    cache.save(path);
  }
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  std::string body = ss.str();
  // Flip one payload byte ('1' -> '7') without touching the stored checksum.
  const std::size_t pos = body.find("{\"v\":1}");
  ASSERT_NE(pos, std::string::npos);
  body[pos + 5] = '7';
  in.close();
  std::ofstream(path, std::ios::binary | std::ios::trunc) << body;

  serve::ResultCache warmed(8);
  const auto warnings = warmed.load(path);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("SSN-W067"), std::string::npos);
  EXPECT_EQ(warmed.size(), 1u);
  EXPECT_EQ(warmed.get(11).value_or(""), "{\"v\":2}");
  std::remove(path.c_str());
}

TEST(ServeCache, BadHeaderAbandonsFileWithWarning) {
  const std::string path = temp_path("serve_cache_header");
  support::write_file_atomic(path, "not a cache file\n");
  serve::ResultCache warmed(8);
  const auto warnings = warmed.load(path);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("SSN-W067"), std::string::npos);
  EXPECT_EQ(warmed.size(), 0u);
  std::remove(path.c_str());
}

// --- server core -------------------------------------------------------------

/// Collects responses from worker threads and lets a test await a count.
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

// The slow request of the overload, deadline and drain tests: 34 simulated
// design points over a 1 us ramp with a lightly damped package, ~0.4 s on a
// 2.0 GHz core (RelWithDebInfo). Its cost is transient time steps, so it
// neither shrinks with the driver count (the bench simulates each uniform
// bank as one M-scaled driver) nor with the closed-form Monte Carlo's speed.
constexpr const char* kSlowSweep =
    R"("cmd":"sweep-n","max_n":64,"golden":"bsim","tr":1e-6,"l":1e-7,"c":1e-10)";

serve::ServerConfig quick_config() {
  serve::ServerConfig config;
  config.threads = 2;
  config.queue_capacity = 64;
  config.cache_capacity = 64;
  return config;
}

bool any_line_contains(const std::vector<std::string>& lines,
                       const std::string& needle) {
  for (const auto& line : lines)
    if (line.find(needle) != std::string::npos) return true;
  return false;
}

TEST(ServeServer, AnswersComputesAndCaches) {
  serve::Server server(quick_config());
  ResponseCollector rc;
  const std::string req = R"({"id":"a","cmd":"estimate","n":4,"tr":1e-10})";
  server.submit_line(req, rc.sink());
  rc.await(1);
  server.submit_line(R"({"id":"b","cmd":"estimate","n":4,"tr":1e-10})",
                     rc.sink());
  const auto lines = rc.await(2);
  ASSERT_EQ(lines.size(), 2u);
  for (const auto& line : lines) EXPECT_TRUE(parse_json(line).ok) << line;
  EXPECT_TRUE(any_line_contains(lines, "\"id\":\"a\",\"ok\":true"));
  EXPECT_TRUE(any_line_contains(lines, "\"id\":\"b\",\"ok\":true,\"cached\":true"));
  const auto stats = server.stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(ServeServer, MalformedLineAnswersE063Immediately) {
  serve::Server server(quick_config());
  ResponseCollector rc;
  server.submit_line(R"({"id":"bad","cmd":"nope"})", rc.sink());
  const auto lines = rc.await(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("SSN-E063"), std::string::npos);
  EXPECT_NE(lines[0].find("\"id\":\"bad\""), std::string::npos);
  EXPECT_EQ(server.stats().malformed, 1u);
  EXPECT_EQ(server.stats().accepted, 0u);
}

TEST(ServeServer, DrainingShedsNewRequestsWithE064) {
  serve::Server server(quick_config());
  server.begin_drain();
  ResponseCollector rc;
  server.submit_line(R"({"id":"late","cmd":"estimate"})", rc.sink());
  const auto lines = rc.await(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("SSN-E064"), std::string::npos);
  EXPECT_EQ(server.stats().shed, 1u);
}

TEST(ServeServer, OverloadShedsWithE064AndBoundedQueue) {
  // One worker, a one-slot queue, and a slow request pinning the worker:
  // the second submission queues, the third must be shed.
  serve::ServerConfig config;
  config.threads = 1;
  config.queue_capacity = 1;
  config.cache_capacity = 0;
  serve::Server server(config);
  ResponseCollector rc;
  // Slow enough to straddle the later submissions (kSlowSweep), bounded by
  // its own deadline so the test never waits on the full sweep.
  server.submit_line(
      R"({"id":"slow",)" + std::string(kSlowSweep) + R"(,"deadline":0.5})",
      rc.sink());
  // Give the dispatcher time to claim the slow request off the queue.
  const auto t0 = std::chrono::steady_clock::now();
  while (server.stats().accepted < 1 &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10))
    std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.submit_line(R"({"id":"queued","cmd":"estimate","n":2})", rc.sink());
  server.submit_line(R"({"id":"shed","cmd":"estimate","n":3})", rc.sink());
  const auto lines = rc.await(3);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_TRUE(any_line_contains(lines, "\"id\":\"shed\""));
  EXPECT_TRUE(any_line_contains(lines, "SSN-E064"));
  EXPECT_TRUE(any_line_contains(lines, "\"retry_after_ms\""));
  const auto stats = server.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.accepted, 2u);
}

TEST(ServeServer, PerRequestDeadlineCancelsOnlyThatRequest) {
  serve::Server server(quick_config());
  ResponseCollector rc;
  // kSlowSweep (~0.4 s) against a 50 ms deadline.
  server.submit_line(
      R"({"id":"doomed",)" + std::string(kSlowSweep) + R"(,"deadline":0.05})",
      rc.sink());
  server.submit_line(R"({"id":"fine","cmd":"estimate","n":4})", rc.sink());
  const auto lines = rc.await(2);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(any_line_contains(lines, "SSN-E066"));
  EXPECT_TRUE(any_line_contains(lines, "\"id\":\"fine\",\"ok\":true"));
  // The daemon is unharmed: a follow-up request still answers.
  server.submit_line(R"({"id":"after","cmd":"estimate","n":5})", rc.sink());
  EXPECT_TRUE(
      any_line_contains(rc.await(3), "\"id\":\"after\",\"ok\":true"));
  EXPECT_EQ(server.stats().cancelled, 1u);
}

TEST(ServeServer, DrainAnswersEveryAcceptedRequest) {
  serve::ServerConfig config;
  config.threads = 1;
  config.cache_capacity = 0;
  config.drain_deadline_s = 0.05;  // force the expired-drain E066 path
  ResponseCollector rc;
  {
    serve::Server server(config);
    for (int i = 0; i < 6; ++i) {
      std::ostringstream req;
      req << "{\"id\":\"d" << i << "\"," << kSlowSweep << "}";
      server.submit_line(req.str(), rc.sink());
    }
    server.finish();
    const auto stats = server.stats();
    EXPECT_EQ(stats.accepted, 6u);
    EXPECT_EQ(stats.responded, 6u) << "an accepted request went unanswered";
    EXPECT_GT(stats.cancelled, 0u) << "expected the drain to cancel work";
  }
  const auto lines = rc.await(6);
  ASSERT_EQ(lines.size(), 6u);
  for (const auto& line : lines) EXPECT_TRUE(parse_json(line).ok) << line;
  EXPECT_TRUE(any_line_contains(lines, "SSN-E066"));
}

TEST(ServeServer, CacheSpillWarmsARestartedServer) {
  const std::string path = temp_path("serve_server_spill");
  std::remove(path.c_str());
  serve::ServerConfig config = quick_config();
  config.cache_file = path;
  const std::string req = R"({"id":"w1","cmd":"estimate","n":6,"tr":1e-10})";
  {
    serve::Server server(config);
    ResponseCollector rc;
    server.submit_line(req, rc.sink());
    rc.await(1);
    server.finish();  // drain-time spill
  }
  serve::Server warmed(config);
  EXPECT_TRUE(warmed.warm_warnings().empty());
  ResponseCollector rc;
  warmed.submit_line(R"({"id":"w2","cmd":"estimate","n":6,"tr":1e-10})",
                     rc.sink());
  const auto lines = rc.await(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"cached\":true"), std::string::npos) << lines[0];
  EXPECT_EQ(warmed.stats().cache_hits, 1u);
  std::remove(path.c_str());
}

TEST(ServeServer, SpillFromAPreCollapseBuildNeverAnswers) {
  // The cache key carries the testbench revision, which changed with the
  // M-factor driver collapse: a spill entry keyed the way the previous
  // builder's build keyed it must miss, so a sim:true answer is recomputed,
  // never replayed.
  const std::string fresh = temp_path("serve_spill_current");
  const std::string stale = temp_path("serve_spill_stale");
  std::remove(fresh.c_str());
  const std::string line =
      R"({"id":"s","cmd":"estimate","n":8,"tr":1e-10,"sim":true})";
  const auto parsed = parse_request(line);
  ASSERT_TRUE(parsed.ok);
  const std::string key = serve::cache_key_string(parsed.request);
  const std::string salt =
      "bench-r" + std::to_string(circuit::kTestbenchRevision) + "|";
  ASSERT_EQ(key.rfind("serve-v1|" + salt, 0), 0u) << key;
  // Revision 1 keys carried no bench salt at all.
  const std::uint64_t old_key =
      support::fnv1a("serve-v1|" + key.substr(("serve-v1|" + salt).size()));

  serve::ServerConfig config = quick_config();
  config.cache_file = fresh;
  {
    serve::Server server(config);
    ResponseCollector rc;
    server.submit_line(line, rc.sink());
    rc.await(1);
    server.finish();  // spills the answer under the current key
  }
  // Re-key the very same payload the way the previous build did.
  serve::ResultCache current(4);
  ASSERT_TRUE(current.load(fresh).empty());
  const auto payload = current.get(serve::cache_key(parsed.request));
  ASSERT_TRUE(payload.has_value());
  serve::ResultCache old(4);
  old.put(old_key, *payload);
  old.save(stale);

  config.cache_file = stale;
  serve::Server server(config);
  EXPECT_TRUE(server.warm_warnings().empty());
  ResponseCollector rc;
  server.submit_line(line, rc.sink());
  const auto lines = rc.await(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos) << lines[0];
  EXPECT_EQ(lines[0].find("\"cached\":true"), std::string::npos) << lines[0];
  EXPECT_EQ(server.stats().cache_hits, 0u);
  server.finish();
  std::remove(fresh.c_str());
  std::remove(stale.c_str());
}

TEST(ServeServer, CorruptSpillSurfacesW067AndStillStarts) {
  const std::string path = temp_path("serve_server_badspill");
  support::write_file_atomic(path, "garbage header\n");
  serve::ServerConfig config = quick_config();
  config.cache_file = path;
  serve::Server server(config);
  ASSERT_EQ(server.warm_warnings().size(), 1u);
  EXPECT_NE(server.warm_warnings()[0].find("SSN-W067"), std::string::npos);
  ResponseCollector rc;
  server.submit_line(R"({"id":"ok","cmd":"estimate","n":4})", rc.sink());
  EXPECT_TRUE(any_line_contains(rc.await(1), "\"ok\":true"));
  std::remove(path.c_str());
}

TEST(ServeServer, ServeStreamEndToEnd) {
  std::istringstream in(
      "{\"id\":\"s1\",\"cmd\":\"estimate\",\"n\":4}\n"
      "\n"
      "this is not json\n"
      "{\"id\":\"s2\",\"cmd\":\"estimate\",\"n\":4}\n");
  std::ostringstream out;
  serve::Server server(quick_config());
  // Warm the cache first: the stream submits s1 and s2 back to back onto
  // two workers, so whether s2 hits s1's entry is a scheduling race — but
  // both must hit an entry that predates the stream.
  ResponseCollector warm;
  server.submit_line(R"({"id":"warm","cmd":"estimate","n":4})", warm.sink());
  ASSERT_EQ(warm.await(1).size(), 1u);
  EXPECT_EQ(server.serve_stream(in, out), 0);
  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> parsed;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(parse_json(line).ok) << line;
    parsed.push_back(line);
  }
  ASSERT_EQ(parsed.size(), 4u);  // two results, one E063, the stats line
  EXPECT_TRUE(any_line_contains(parsed, "SSN-E063"));
  EXPECT_TRUE(any_line_contains(parsed, "\"cached\":true"));
  const auto& stats_line = parsed.back();
  ASSERT_NE(stats_line.find("\"event\":\"stats\""), std::string::npos);
  const auto stats = parse_json(stats_line);
  ASSERT_TRUE(stats.ok);
  EXPECT_DOUBLE_EQ(stats.value.find("accepted")->number,
                   stats.value.find("responded")->number);
}

// --- socket transport --------------------------------------------------------

#if !defined(_WIN32)

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string read_response_line(int fd) {
  std::string out;
  char c = '\0';
  while (::read(fd, &c, 1) == 1 && c != '\n') out.push_back(c);
  return out;
}

TEST(ServeSocket, BurstOfFreshConnectionsIsServedAndDrained) {
  // Regression: a connection accepted after the loop snapshots its pollfd
  // array must wait for the next poll cycle — walking it against the stale
  // snapshot read past the array's end (caught by ASan). A burst of clients
  // connecting back-to-back lands every accept in that window.
  serve::Server server(quick_config());
  serve::SocketOptions sopt;
  sopt.path = temp_path("serve_socket_burst.sock");
  std::remove(sopt.path.c_str());
  sopt.poll_interval_ms = 20;
  support::RunContext ctx;
  std::string err;
  int rc = -1;
  std::thread loop(
      [&] { rc = serve::serve_unix_socket(server, sopt, &ctx, err); });
  int probe = -1;
  for (int i = 0; i < 500 && probe < 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    probe = connect_unix(sopt.path);
  }
  ASSERT_GE(probe, 0) << err;
  std::vector<int> fds{probe};
  for (int i = 0; i < 7; ++i) {
    const int fd = connect_unix(sopt.path);
    ASSERT_GE(fd, 0);
    fds.push_back(fd);
  }
  for (std::size_t i = 0; i < fds.size(); ++i) {
    std::ostringstream req;
    req << "{\"id\":\"s" << i << "\",\"cmd\":\"estimate\",\"n\":" << (4 + i)
        << ",\"tr\":1e-10}\n";
    const std::string text = req.str();
    ASSERT_EQ(::write(fds[i], text.data(), text.size()),
              ssize_t(text.size()));
  }
  for (std::size_t i = 0; i < fds.size(); ++i) {
    const std::string line = read_response_line(fds[i]);
    std::ostringstream want;
    want << "\"id\":\"s" << i << "\",\"ok\":true";
    EXPECT_NE(line.find(want.str()), std::string::npos) << line;
    ::close(fds[i]);
  }
  ctx.request_cancel();
  loop.join();
  EXPECT_EQ(rc, 0) << err;
  const auto final_stats = server.stats();
  EXPECT_EQ(final_stats.accepted, final_stats.responded);
  EXPECT_EQ(final_stats.ok, 8u);
  std::remove(sopt.path.c_str());
}

#endif  // !defined(_WIN32)

// --- fault injection ---------------------------------------------------------

TEST(ServeFaultInjection, SolverFaultsStayIsolatedToTheirRequest) {
  if (!support::kFaultInjectionEnabled)
    GTEST_SKIP() << "needs -DSSNKIT_FAULT_INJECTION=ON (fault-injection preset)";
  auto& injector = support::FaultInjector::instance();
  support::FaultPlan plan;
  plan.probability = 1.0;  // every Newton solve diverges
  injector.arm(support::FaultKind::kNewtonDivergence, plan);

  serve::ServerConfig config;
  config.threads = 2;
  config.cache_capacity = 0;  // keep every request on the faulted path
  serve::Server server(config);
  ResponseCollector rc;
  for (int i = 0; i < 4; ++i) {
    std::ostringstream req;
    req << "{\"id\":\"f" << i
        << "\",\"cmd\":\"estimate\",\"sim\":true,\"n\":" << (2 + i) << "}";
    server.submit_line(req.str(), rc.sink());
  }
  const auto lines = rc.await(4);
  injector.disarm_all();
  ASSERT_EQ(lines.size(), 4u) << "a faulted request went unanswered";
  for (const auto& line : lines) {
    ASSERT_TRUE(parse_json(line).ok) << line;
    // Each request either degraded through the recovery ladder to a valid
    // (analytic-fidelity) result or failed typed — never silence, never a
    // daemon crash.
    const bool ok = line.find("\"ok\":true") != std::string::npos;
    const bool typed = line.find("SSN-E065") != std::string::npos;
    EXPECT_TRUE(ok || typed) << line;
    if (ok) {
      EXPECT_NE(line.find("\"fidelity\":"), std::string::npos) << line;
    }
  }
  // With the faults disarmed the daemon serves full-fidelity results again.
  server.submit_line(R"({"id":"clean","cmd":"estimate","sim":true,"n":3})",
                     rc.sink());
  const auto after = rc.await(5);
  ASSERT_EQ(after.size(), 5u);
  EXPECT_TRUE(any_line_contains(after, "\"id\":\"clean\",\"ok\":true"));
  EXPECT_EQ(server.stats().responded, 5u);
}

// --- trust on the wire -------------------------------------------------------

TEST(ServeJson, RejectsNonFiniteLiteralsOnInput) {
  // JSON has no NaN/Infinity tokens; a client trying to smuggle one in is
  // rejected at the parser, mirroring SSN-E067 on the output side.
  for (const char* bad : {"{\"x\":NaN}", "{\"x\":Infinity}",
                          "{\"x\":-Infinity}", "{\"x\":nan}", "{\"x\":inf}"}) {
    EXPECT_FALSE(parse_json(bad).ok) << "accepted: " << bad;
  }
}

TEST(ServeTrust, RenderAndExtractVerdictRoundTrip) {
  using verify::Verdict;
  for (const Verdict v : {Verdict::kVerified, Verdict::kRefined,
                          Verdict::kUnverified, Verdict::kDegraded}) {
    verify::TrustReport t;
    t.verdict = v;
    const std::string fragment =
        "{\"v_max\":0.5,\"trust\":" + serve::render_trust(t) + "}";
    ASSERT_TRUE(parse_json(fragment).ok) << fragment;
    Verdict out = Verdict::kVerified;
    ASSERT_TRUE(serve::extract_trust_verdict(fragment, out)) << fragment;
    EXPECT_EQ(out, v);
  }
}

TEST(ServeTrust, RenderHandlesNansNotesAndEscapes) {
  verify::TrustReport t;
  t.verdict = verify::Verdict::kDegraded;
  t.residual = 2.5e-7;  // finite -> rendered as a number
  // cond_estimate / ci95 stay NaN -> rendered as null, keeping the
  // response a single parseable JSON line (the strict renderer would
  // throw; trust fields are exactly the "not computed is legal" case).
  t.refinements = 2;
  t.note("SSN-W071: residual 2.5e-07 above tolerance \"strict\"");
  const std::string rendered = serve::render_trust(t);
  EXPECT_NE(rendered.find("\"cond\":null"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("\"ci95\":null"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("\"refinements\":2"), std::string::npos) << rendered;
  const auto parsed = parse_json(rendered);
  ASSERT_TRUE(parsed.ok) << rendered;  // the escaped quote survives parsing
  const auto* residual = parsed.value.find("residual");
  ASSERT_NE(residual, nullptr);
  EXPECT_DOUBLE_EQ(residual->number, 2.5e-7);
  const auto* notes = parsed.value.find("notes");
  ASSERT_NE(notes, nullptr);
  ASSERT_EQ(notes->elements.size(), 1u);
  EXPECT_NE(notes->elements[0].string.find("\"strict\""), std::string::npos);
}

TEST(ServeTrust, ExtractRefusesFragmentsWithoutAUsableVerdict) {
  verify::Verdict out = verify::Verdict::kVerified;
  EXPECT_FALSE(serve::extract_trust_verdict("{\"v_max\":0.5}", out));
  EXPECT_FALSE(serve::extract_trust_verdict("{\"trust\":{}}", out));
  EXPECT_FALSE(serve::extract_trust_verdict(
      "{\"trust\":{\"verdict\":\"totally-fine\"}}", out));
  EXPECT_FALSE(serve::extract_trust_verdict("{\"trust\":3}", out));
  EXPECT_FALSE(serve::extract_trust_verdict("not json", out));
}

TEST(ServeCache, RottedEntryDropsWithW072AndMisses) {
  if (!support::kFaultInjectionEnabled)
    GTEST_SKIP() << "needs -DSSNKIT_FAULT_INJECTION=ON (fault-injection preset)";
  auto& injector = support::FaultInjector::instance();
  support::FaultPlan plan;
  plan.probability = 1.0;  // every hit rots
  injector.arm(support::FaultKind::kCacheRot, plan);

  serve::ResultCache cache(4);
  cache.put(1, "{\"v_max\":0.5,\"trust\":{\"verdict\":\"verified\"}}");
  std::string warning;
  const auto hit = cache.get(1, &warning);
  injector.disarm_all();
  EXPECT_FALSE(hit.has_value()) << "a rotted payload was served";
  EXPECT_NE(warning.find("SSN-W072"), std::string::npos) << warning;
  EXPECT_EQ(cache.stats().corrupt_dropped, 1u);
  // The entry is gone, not quarantined: the next lookup is a clean miss
  // and the slot can be refilled by the recompute.
  warning.clear();
  EXPECT_FALSE(cache.get(1, &warning).has_value());
  EXPECT_TRUE(warning.empty());
}

TEST(ServeServer, DegradedSpillEntryIsRecomputedNotServed) {
  const std::string path = temp_path("serve_degraded_spill");
  std::remove(path.c_str());
  serve::ServerConfig config = quick_config();
  config.cache_file = path;
  const std::string req = R"({"id":"g1","cmd":"estimate","n":5,"tr":1e-10})";
  {
    serve::Server server(config);
    ResponseCollector rc;
    server.submit_line(req, rc.sink());
    rc.await(1);
    server.finish();
  }

  // Rewrite the spilled fragment's verdict to "degraded", fixing the
  // payload checksum so only the trust layer — not the integrity check —
  // can refuse it.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header, line;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, line));
  in.close();
  ASSERT_EQ(line.rfind("entry ", 0), 0u) << line;
  std::string payload = line.substr(6 + 17 + 17);
  const std::string from = "\"verdict\":\"verified\"";
  const auto pos = payload.find(from);
  ASSERT_NE(pos, std::string::npos) << payload;
  payload.replace(pos, from.size(), "\"verdict\":\"degraded\"");
  std::ofstream out(path, std::ios::trunc);
  out << header << "\n"
      << line.substr(0, 6 + 17) << support::hex_u64(support::fnv1a(payload))
      << " " << payload << "\n";
  out.close();

  serve::Server warmed(config);
  EXPECT_TRUE(warmed.warm_warnings().empty());
  ResponseCollector rc;
  warmed.submit_line(R"({"id":"g2","cmd":"estimate","n":5,"tr":1e-10})",
                     rc.sink());
  const auto lines = rc.await(1);
  ASSERT_EQ(lines.size(), 1u);
  // The warmed entry checksums clean but carries a degraded verdict, so
  // the server recomputes instead of replaying it.
  EXPECT_NE(lines[0].find("\"cached\":false"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"verdict\":\"verified\""), std::string::npos)
      << lines[0];
  EXPECT_EQ(warmed.stats().cache_hits, 0u);
  std::remove(path.c_str());
}

}  // namespace
