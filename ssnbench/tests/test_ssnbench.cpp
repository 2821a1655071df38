// Unit tests of the benchmark's own machinery: the percentile rule, span
// self time with overlapping children, the host-speed factor, the
// generator's key uniqueness and restart, and that the live cache hit rate
// follows the repeat share.
#include "gen.hpp"
#include "serve_load.hpp"
#include "speed.hpp"
#include "stats.hpp"
#include "trace.hpp"

#include "core/lc_model.hpp"

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

namespace ssnbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = double(i + 1);
  return v;
}

TEST(Percentile, P99NeedsTenSamplesBeyondIt) {
  // 1000 samples support p99: exactly ten lie above it.
  const Summary s = summarize(ramp(1000));
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.tail_pct, 99.0);
  EXPECT_DOUBLE_EQ(s.tail, 990.0);
  EXPECT_DOUBLE_EQ(s.median, 500.0);
}

TEST(Percentile, FallsBackToTheHighestSupportedPercentile) {
  // 300 samples: p99 would leave 3 beyond it, so the tail is the value
  // with exactly ten beyond it (p96.67).
  const Summary s = summarize(ramp(300));
  EXPECT_NEAR(s.tail_pct, 100.0 * (1.0 - 10.0 / 300.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.tail, 290.0);
}

TEST(Percentile, TinySetsReportTheMedianOnly) {
  const Summary s = summarize(ramp(15));
  EXPECT_DOUBLE_EQ(s.tail_pct, 50.0);
  EXPECT_DOUBLE_EQ(s.tail, s.median);
  EXPECT_EQ(summarize({}).count, 0u);
}

TEST(SelfTime, SubtractsTheUnionOfOverlappingChildren) {
  Tracer t;
  const int root = t.add("root", 1, -1, 0, 100);
  t.add("a", 1, root, 10, 40);   // overlaps b
  t.add("b", 1, root, 30, 60);
  t.add("c", 1, root, 50, 55);   // inside b
  t.add("d", 1, root, 90, 120);  // sticks out past the parent's end
  const std::vector<double> self = t.self_ns();
  // Covered: [10,60) + [90,100) = 60 of 100.
  EXPECT_DOUBLE_EQ(self[std::size_t(root)], 40.0);
  EXPECT_DOUBLE_EQ(self[1], 30.0);
  EXPECT_DOUBLE_EQ(self[4], 30.0);
}

TEST(SelfTime, NestedSpansChargeOnlyTheirOwnTime) {
  Tracer t;
  const int root = t.add("root", 7, -1, 0, 50);
  const int mid = t.add("mid", 7, root, 10, 40);
  t.add("leaf", 7, mid, 20, 25);
  const auto by_name = t.self_ns_by_name();
  EXPECT_DOUBLE_EQ(by_name.at("root")[0], 20.0);
  EXPECT_DOUBLE_EQ(by_name.at("mid")[0], 25.0);
  EXPECT_DOUBLE_EQ(by_name.at("leaf")[0], 5.0);
}

TEST(HostSpeed, FactorIsNominalOverTheMedianKernelTime) {
  HostSpeed speed;
  EXPECT_DOUBLE_EQ(speed.factor(), 1.0);
  speed.sample(3);
  ASSERT_EQ(speed.samples().size(), 3u);
  EXPECT_GT(speed.samples()[0], 0.0);
  EXPECT_DOUBLE_EQ(speed.factor(), 2.0e-3 / summarize(speed.samples()).median);
}

TEST(Generator, FreshRequestsNeverShareACacheKey) {
  const Calibrations cals;
  RequestGen gen(42, 0.0, cals);
  std::unordered_set<std::uint64_t> keys;
  for (int i = 0; i < 20000; ++i) {
    const GenItem g = gen.next();
    EXPECT_FALSE(g.repeat);
    EXPECT_EQ(g.key, ssnkit::serve::cache_key(g.request()));
    EXPECT_TRUE(keys.insert(g.key).second);
  }
}

TEST(Generator, SameSeedSameStream) {
  const Calibrations cals;
  RequestGen a(7, 0.3, cals), b(7, 0.3, cals);
  for (int i = 0; i < 2000; ++i) EXPECT_EQ(a.next().key, b.next().key);
}

TEST(Generator, RestartReplaysTheStream) {
  // Each serve set-up restarts the generator; the kept head must not depend
  // on how many set-ups ran before it.
  const Calibrations cals;
  RequestGen a(7, 0.3, cals), b(7, 0.3, cals);
  for (int i = 0; i < 500; ++i) a.next();
  a.restart();
  for (int i = 0; i < 2000; ++i) EXPECT_EQ(a.next().key, b.next().key);
}

TEST(Generator, McStreamIsFreshMcOnly) {
  const Calibrations cals;
  RequestGen gen(5, 0.3, cals);
  std::unordered_set<std::uint64_t> keys;
  for (int i = 0; i < 500; ++i) {
    const GenItem g = gen.next_mc();
    EXPECT_TRUE(g.mc);
    EXPECT_FALSE(g.repeat);
    EXPECT_GE(g.samples, 200);
    EXPECT_LE(g.samples, 2000);
    EXPECT_TRUE(keys.insert(g.key).second);
  }
}

TEST(Generator, CoversAllFourTable1Cases) {
  const Calibrations cals;
  RequestGen gen(3, 0.3, cals);
  std::set<ssnkit::core::MaxSsnCase> seen;
  for (int i = 0; i < 20000; ++i) {
    const GenItem g = gen.next();
    bool with_c = false;
    const auto s = scenario_of(g, cals, &with_c);
    if (!g.mc && with_c) seen.insert(ssnkit::core::LcModel(s).max_case());
  }
  EXPECT_EQ(seen.size(), 4u);
}

/// serve.cache.hit_rate of a thread-mode server fed the serve_closed_form
/// stream at this repeat share (every answer must also check out).
double live_hit_rate(double repeat_frac, const Calibrations& cals) {
  ServeLoadConfig cfg;
  cfg.setup_reps = 1;
  cfg.seed = 11;
  cfg.repeat_frac = repeat_frac;
  ServeLoad load(cfg, cals);
  load.closed_loop(30.0, 8, 3000);
  const CheckTally tally = load.check(5);
  EXPECT_EQ(tally.mismatches, 0u);
  EXPECT_EQ(tally.failed, 0u);
  return hit_rate(load.server().cache().stats());
}

TEST(ServeClosedForm, ZeroRepeatStreamHasNoCacheHits) {
  const Calibrations cals;
  EXPECT_EQ(live_hit_rate(0.0, cals), 0.0);
}

TEST(ServeClosedForm, HitRateFollowsTheRepeatShare) {
  const Calibrations cals;
  const double low = live_hit_rate(0.15, cals);
  const double high = live_hit_rate(0.45, cals);
  EXPECT_GT(low, 0.05);
  EXPECT_GT(high, low + 0.15);
  EXPECT_LT(high, 0.5);
}

}  // namespace
}  // namespace ssnbench
