// The command-line front end: argument parser and subcommands.
#include "cli/args.hpp"
#include "cli/commands.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace {

using namespace ssnkit::cli;

TEST(Args, KeyValueForms) {
  const Args args = Args::parse({"--n", "8", "--tr=0.1n", "pos1", "--flagy"},
                                {"flagy"});
  EXPECT_EQ(args.get_int("n", 0), 8);
  EXPECT_DOUBLE_EQ(args.get_double("tr", 0.0), 0.1e-9);
  EXPECT_TRUE(args.flag("flagy"));
  EXPECT_FALSE(args.flag("other"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(Args, DefaultsAndMissing) {
  const Args args = Args::parse({});
  EXPECT_FALSE(args.has("n"));
  EXPECT_EQ(args.get_or("tech", "180nm"), "180nm");
  EXPECT_EQ(args.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("l", 5e-9), 5e-9);
}

TEST(Args, Malformed) {
  EXPECT_THROW(Args::parse({"--n"}), std::invalid_argument);
  EXPECT_THROW(Args::parse({"--"}), std::invalid_argument);
  EXPECT_THROW(Args::parse({"--verify=1"}, {"verify"}), std::invalid_argument);
  const Args bad_int = Args::parse({"--n", "eight"});
  EXPECT_THROW(bad_int.get_int("n", 0), std::invalid_argument);
}

TEST(Args, SpiceSuffixesInNumbers) {
  const Args args = Args::parse({"--l", "2.5n", "--c", "1p", "--budget", "270m"});
  EXPECT_DOUBLE_EQ(args.get_double("l", 0), 2.5e-9);
  EXPECT_DOUBLE_EQ(args.get_double("c", 0), 1e-12);
  EXPECT_DOUBLE_EQ(args.get_double("budget", 0), 0.27);
}

TEST(Args, UnusedKeysDetected) {
  const Args args = Args::parse({"--n", "8", "--typo", "1"});
  (void)args.get_int("n", 0);
  const auto unused = args.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

int run(const std::vector<std::string>& argv, std::string& out,
        std::string& err) {
  std::ostringstream os, es;
  const int rc = run_cli(argv, os, es);
  out = os.str();
  err = es.str();
  return rc;
}

TEST(Cli, HelpAndUnknownCommand) {
  std::string out, err;
  EXPECT_EQ(run({"help"}, out, err), 0);
  EXPECT_NE(out.find("usage:"), std::string::npos);
  EXPECT_EQ(run({"frobnicate"}, out, err), 2);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
  EXPECT_EQ(run({}, out, err), 2);
}

TEST(Cli, Calibrate) {
  std::string out, err;
  ASSERT_EQ(run({"calibrate", "--tech", "180nm"}, out, err), 0) << err;
  EXPECT_NE(out.find("lambda"), std::string::npos);
  EXPECT_NE(out.find("V_x"), std::string::npos);
}

TEST(Cli, EstimateWithAndWithoutC) {
  std::string out, err;
  ASSERT_EQ(run({"estimate", "--n", "8", "--tr", "0.1n"}, out, err), 0) << err;
  EXPECT_NE(out.find("Table 1 case"), std::string::npos);
  ASSERT_EQ(run({"estimate", "--n", "8", "--no-c"}, out, err), 0) << err;
  EXPECT_NE(out.find("Eqn 7"), std::string::npos);
}

TEST(Cli, EstimateVerifyRunsSimulator) {
  std::string out, err;
  ASSERT_EQ(run({"estimate", "--n", "4", "--verify"}, out, err), 0) << err;
  EXPECT_NE(out.find("simulated max SSN"), std::string::npos);
}

TEST(Cli, SweepNEmitsCsv) {
  std::string out, err;
  ASSERT_EQ(run({"sweep-n", "--max-n", "4", "--no-c"}, out, err), 0) << err;
  EXPECT_NE(out.find("n,sim,this_work"), std::string::npos);
  // Header + at least 4 rows.
  EXPECT_GE(std::count(out.begin(), out.end(), '\n'), 5);
}

TEST(Cli, SweepNWithZeroCapacitanceUsesTheLOnlyModel) {
  // --c 0 leaves no pad capacitance to model: the with-C rule selects the
  // L-only model (as serve does for "c":0) instead of failing in LcModel.
  std::string out, err;
  ASSERT_EQ(run({"sweep-n", "--c", "0", "--max-n", "2"}, out, err), 0) << err;
  EXPECT_EQ(out.rfind("n,sim,this_work", 0), 0u) << out;
  EXPECT_NE(out.find("\n1,"), std::string::npos) << out;
  EXPECT_NE(out.find("\n2,"), std::string::npos) << out;
}

TEST(Cli, DesignAnswersQueries) {
  std::string out, err;
  ASSERT_EQ(run({"design", "--budget", "0.3"}, out, err), 0) << err;
  EXPECT_NE(out.find("ground pads needed"), std::string::npos);
  EXPECT_NE(out.find("max simultaneous drivers"), std::string::npos);
}

TEST(Cli, MonteCarloStats) {
  std::string out, err;
  ASSERT_EQ(run({"mc", "--samples", "50"}, out, err), 0) << err;
  EXPECT_NE(out.find("p95"), std::string::npos);
}

TEST(Cli, SweepCEmitsCsv) {
  std::string out, err;
  ASSERT_EQ(run({"sweep-c", "--n", "4"}, out, err), 0) << err;
  EXPECT_NE(out.find("c,zeta,sim,lc_model"), std::string::npos);
}

TEST(Cli, EstimateExtendedReportsTruePeak) {
  std::string out, err;
  ASSERT_EQ(run({"estimate", "--n", "2", "--extended"}, out, err), 0) << err;
  EXPECT_NE(out.find("post-ramp"), std::string::npos);
}

TEST(Cli, AcImpedanceCsv) {
  std::string out, err;
  ASSERT_EQ(run({"ac", "--n", "2", "--ppd", "3"}, out, err), 0) << err;
  EXPECT_NE(out.find("freq,z_mag,z_phase_deg"), std::string::npos);
  EXPECT_GE(std::count(out.begin(), out.end(), '\n'), 5);
}

TEST(Cli, AcRejectsNonPositiveDriverCount) {
  // A bank with no drivers has no switching current to see the ground
  // path through; every other command rejects it too.
  for (const char* bad : {"0", "-3"}) {
    std::string out, err;
    EXPECT_EQ(run({"ac", "--n", bad}, out, err), 1) << bad;
    EXPECT_NE(err.find("--n must be >= 1"), std::string::npos) << err;
    EXPECT_EQ(out.find("freq,"), std::string::npos) << out;
  }
}

TEST(Cli, SimulateNetlistFile) {
  const char* path = "cli_test_netlist.cir";
  {
    std::ofstream f(path);
    f << "* tiny rc\n"
         "V1 in 0 PWL(0 0, 1p 1)\n"
         "R1 in out 1k\n"
         "C1 out 0 1p\n"
         ".tran 10p 5n\n";
  }
  std::string out, err;
  ASSERT_EQ(run({"simulate", path, "--probe", "out"}, out, err), 0) << err;
  EXPECT_NE(out.find("v(out)"), std::string::npos);
  ASSERT_EQ(run({"simulate", path}, out, err), 0) << err;  // CSV mode
  EXPECT_NE(out.find("time,"), std::string::npos);
  std::remove(path);
}

TEST(Cli, SimulateErrors) {
  std::string out, err;
  EXPECT_EQ(run({"simulate"}, out, err), 1);
  EXPECT_EQ(run({"simulate", "/no/such/file.cir"}, out, err), 1);
  EXPECT_NE(err.find("error:"), std::string::npos);
}

TEST(Cli, BadOptionValueFails) {
  std::string out, err;
  EXPECT_EQ(run({"estimate", "--tech", "90nm"}, out, err), 1);
  EXPECT_NE(err.find("unknown technology"), std::string::npos);
  EXPECT_EQ(run({"calibrate", "--golden", "spice"}, out, err), 1);
}

TEST(Cli, ServeRejectsRequestDeadlineOutsideTheWireRange) {
  // Process mode forwards the default deadline on the worker's request
  // line, whose "deadline" range is [0, 3600] s: reject anything else up
  // front, before a daemon starts, rather than as a worker-side SSN-E063.
  for (const char* bad : {"-1", "3600.5", "1e9"}) {
    std::string out, err;
    EXPECT_EQ(run({"serve", "--request-deadline", bad}, out, err), 1) << bad;
    EXPECT_NE(err.find("--request-deadline must be in [0, 3600] s"),
              std::string::npos)
        << bad << ": " << err;
    EXPECT_EQ(out, "") << bad;
  }
}

TEST(Cli, UnrecognizedOptionWarns) {
  std::string out, err;
  ASSERT_EQ(run({"calibrate", "--bogus", "1"}, out, err), 0);
  EXPECT_NE(out.find("unrecognized option --bogus"), std::string::npos);
}

}  // namespace
