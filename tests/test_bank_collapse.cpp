// Driver-bank collapse oracle: make_ssn_testbench simulates each group of
// identical drivers as one M-scaled instance. The per-driver circuit
// (expanded_driver_groups: every driver its own group of one) is the
// reference; both must give the same V_max, inside the engine's LTE
// tolerance, and the same recovery-ladder fidelity over a grid of driver
// counts, damping regimes, device families and bench options.
#include "analysis/calibrate.hpp"
#include "analysis/measure.hpp"
#include "circuit/testbench.hpp"
#include "devices/asdm.hpp"
#include "sim/recovery.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

using namespace ssnkit;

namespace {

const analysis::Calibration& cal_for(process::GoldenKind golden) {
  static const analysis::Calibration alpha =
      analysis::calibrate(process::tech_180nm(), process::GoldenKind::kAlphaPower);
  static const analysis::Calibration bsim =
      analysis::calibrate(process::tech_180nm(), process::GoldenKind::kBsimLite);
  return golden == process::GoldenKind::kBsimLite ? bsim : alpha;
}

struct Outcome {
  double v_max = 0.0;
  sim::Fidelity fidelity = sim::Fidelity::kFailed;
  int nodes = 0;
};

Outcome run(const circuit::SsnBenchSpec& spec,
            const std::vector<circuit::DriverGroup>& groups) {
  circuit::SsnBench bench = circuit::make_ssn_testbench(spec, groups);
  const sim::RecoveryOutcome out = sim::run_transient_resilient(
      bench.circuit, analysis::measurement_window(bench, {}));
  EXPECT_TRUE(out.ok()) << (out.error ? out.error->what() : "");
  Outcome o;
  o.fidelity = out.fidelity;
  o.nodes = bench.circuit.node_count();
  if (out.ok()) o.v_max = analysis::extract_measurement(bench, out.result).v_max;
  return o;
}

/// Simulate the collapsed and the expanded bench and require agreement.
void expect_equivalent(const circuit::SsnBenchSpec& spec,
                       const std::string& label) {
  SCOPED_TRACE(label);
  const auto groups = circuit::driver_groups(spec);
  const auto expanded = circuit::expanded_driver_groups(spec);
  const Outcome collapsed = run(spec, groups);
  const Outcome reference = run(spec, expanded);
  ASSERT_GT(reference.v_max, 0.0);
  EXPECT_LE(std::abs(collapsed.v_max - reference.v_max) / reference.v_max, 1e-6)
      << "collapsed " << collapsed.v_max << " V, expanded " << reference.v_max
      << " V";
  EXPECT_EQ(collapsed.fidelity, reference.fidelity);
  // The collapse really happened: fewer groups means fewer nodes.
  if (groups.size() < expanded.size()) {
    EXPECT_LT(collapsed.nodes, reference.nodes);
  }
}

circuit::SsnBenchSpec base_spec(process::GoldenKind golden, int n,
                                double c_mult) {
  const analysis::Calibration& cal = cal_for(golden);
  circuit::SsnBenchSpec spec;
  spec.tech = cal.tech;
  spec.golden = golden;
  spec.n_drivers = n;
  spec.input_rise_time = 0.1e-9;
  spec.package.capacitance =
      c_mult * analysis::make_scenario(cal, spec.package, n,
                                       spec.input_rise_time, true)
                   .critical_capacitance();
  return spec;
}

}  // namespace

TEST(BankCollapse, UniformBankGroupsIntoOneScaledDriver) {
  circuit::SsnBenchSpec spec;
  spec.n_drivers = 24;
  const auto groups = circuit::driver_groups(spec);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].members.size(), 24u);
  const auto expanded = circuit::expanded_driver_groups(spec);
  ASSERT_EQ(expanded.size(), 24u);
  for (int i = 0; i < 24; ++i)
    EXPECT_EQ(expanded[std::size_t(i)].members, std::vector<int>{i});
}

TEST(BankCollapse, EmitterRejectsGroupingsThatDoNotCoverTheSpec) {
  circuit::SsnBenchSpec spec;
  spec.n_drivers = 2;
  spec.n_quiet = 1;
  auto groups = circuit::driver_groups(spec);
  ASSERT_EQ(groups.size(), 2u);
  auto missing = groups;
  missing[0].members.pop_back();  // driver 1 in no group
  EXPECT_THROW(circuit::make_ssn_testbench(spec, missing), std::invalid_argument);
  auto twice = groups;
  twice[0].members.push_back(0);  // driver 0 in its group twice
  EXPECT_THROW(circuit::make_ssn_testbench(spec, twice), std::invalid_argument);
  auto merged = groups;
  merged[0].members.push_back(2);  // a quiet driver in the switching group
  merged.pop_back();
  EXPECT_THROW(circuit::make_ssn_testbench(spec, merged), std::invalid_argument);
}

TEST(BankCollapse, MatchesExpandedOverDriverCountDampingAndGolden) {
  for (const auto golden :
       {process::GoldenKind::kAlphaPower, process::GoldenKind::kBsimLite}) {
    for (const int n : {1, 2, 8, 24, 48}) {
      for (const double c_mult : {0.5, 1.0, 2.0}) {
        std::ostringstream label;
        label << (golden == process::GoldenKind::kBsimLite ? "bsim" : "alpha")
              << " N=" << n << " C=" << c_mult << "*C_crit";
        expect_equivalent(base_spec(golden, n, c_mult), label.str());
      }
    }
  }
}

TEST(BankCollapse, MatchesExpandedWithQuietDriversAndStaggerGroups) {
  for (const int n : {8, 24}) {
    circuit::SsnBenchSpec quiet = base_spec(process::GoldenKind::kAlphaPower, n, 1.0);
    quiet.n_quiet = 3;
    expect_equivalent(quiet, "n_quiet=3 N=" + std::to_string(n));

    // Two stagger groups, interleaved so neither is a contiguous range.
    circuit::SsnBenchSpec staggered =
        base_spec(process::GoldenKind::kAlphaPower, n, 1.0);
    for (int i = 0; i < n; ++i)
      staggered.stagger.push_back(i % 2 == 0 ? 0.0 : 30e-12);
    staggered.n_quiet = 1;
    ASSERT_EQ(circuit::driver_groups(staggered).size(), 3u);
    expect_equivalent(staggered, "two stagger groups N=" + std::to_string(n));
  }
}

TEST(BankCollapse, MatchesExpandedWithoutPullupAndWithScaledDrivers) {
  circuit::SsnBenchSpec bare = base_spec(process::GoldenKind::kAlphaPower, 24, 1.0);
  bare.include_pullup = false;
  expect_equivalent(bare, "include_pullup=false");

  circuit::SsnBenchSpec wide = base_spec(process::GoldenKind::kBsimLite, 24, 0.5);
  wide.driver_width_mult = 1.7;
  expect_equivalent(wide, "driver_width_mult=1.7");
}

TEST(BankCollapse, MatchesExpandedWithAsdmPulldownOverride) {
  const analysis::Calibration& cal = cal_for(process::GoldenKind::kAlphaPower);
  for (const int n : {8, 48}) {
    circuit::SsnBenchSpec spec = base_spec(process::GoldenKind::kAlphaPower, n, 2.0);
    spec.pulldown_override = std::make_shared<devices::AsdmModel>(cal.asdm.params);
    spec.include_pullup = false;
    expect_equivalent(spec, "ASDM override N=" + std::to_string(n));
    spec.driver_width_mult = 0.6;
    expect_equivalent(spec, "ASDM override x0.6 N=" + std::to_string(n));
  }
}
