// Unit tests for the ssnlint rule engine: every rule class is demonstrated
// against fixture snippets, both firing and staying quiet, plus the
// suppression syntax and the comment/string stripper.
#include "ssnlint_core.hpp"
#include "ssnlint_output.hpp"
#include "ssnlint_project.hpp"
#include "ssnlint_registry.hpp"
#include "ssnlint_units.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

using ssnlint::Diagnostic;
using ssnlint::lint_source;

std::vector<Diagnostic> lint(const std::string& src) {
  return lint_source("fixture.cpp", src);
}

int count_rule(const std::vector<Diagnostic>& diags, const std::string& rule) {
  return int(std::count_if(diags.begin(), diags.end(),
                           [&](const Diagnostic& d) { return d.rule == rule; }));
}

// --- SSN-L001: exact floating-point comparison ------------------------------

TEST(SsnlintL001, FlagsExactFloatLiteralComparison) {
  const auto d = lint("bool f(double x) { return x == 0.3; }\n");
  ASSERT_EQ(count_rule(d, "SSN-L001"), 1);
  EXPECT_EQ(d[0].line, 1);
}

TEST(SsnlintL001, FlagsBothSidesAndNotEquals) {
  EXPECT_EQ(count_rule(lint("bool f(double x) { return 1.5 != x; }\n"), "SSN-L001"), 1);
  EXPECT_EQ(count_rule(lint("bool f(double x) { return x == 1e-6; }\n"), "SSN-L001"), 1);
  EXPECT_EQ(count_rule(lint("bool f(double x) { return x == -0.5; }\n"), "SSN-L001"), 1);
  EXPECT_EQ(count_rule(lint("bool f(float x) { return x == 2.0f; }\n"), "SSN-L001"), 1);
}

TEST(SsnlintL001, IgnoresIntegerAndRelationalComparisons) {
  EXPECT_EQ(count_rule(lint("bool f(int i) { return i == 3; }\n"), "SSN-L001"), 0);
  EXPECT_EQ(count_rule(lint("bool f(double x) { return x <= 0.5; }\n"), "SSN-L001"), 0);
  EXPECT_EQ(count_rule(lint("bool f(unsigned u) { return u == 0x10; }\n"), "SSN-L001"), 0);
  EXPECT_EQ(count_rule(lint("bool f(double a, double b) { return a == b; }\n"),
                       "SSN-L001"), 0);  // literal-free compares are out of scope
}

TEST(SsnlintL001, SuppressionOnSameLineAndLineAbove) {
  EXPECT_EQ(count_rule(lint("bool f(double x) {\n"
                            "  return x == 0.0;  // ssnlint-ignore(SSN-L001)\n"
                            "}\n"),
                       "SSN-L001"), 0);
  EXPECT_EQ(count_rule(lint("bool f(double x) {\n"
                            "  // exact-zero skip is intentional\n"
                            "  // ssnlint-ignore(SSN-L001)\n"
                            "  return x == 0.0;\n"
                            "}\n"),
                       "SSN-L001"), 0);
  // A suppression for a different rule does not hide the violation.
  EXPECT_EQ(count_rule(lint("bool f(double x) {\n"
                            "  return x == 0.0;  // ssnlint-ignore(SSN-L002)\n"
                            "}\n"),
                       "SSN-L001"), 1);
  // Comma-separated rule lists work.
  EXPECT_EQ(count_rule(lint("bool f(double x) {\n"
                            "  return x == 0.0;  // ssnlint-ignore(SSN-L002, SSN-L001)\n"
                            "}\n"),
                       "SSN-L001"), 0);
}

// --- SSN-L002: std::rand / srand --------------------------------------------

TEST(SsnlintL002, FlagsRandAndSrand) {
  const auto d = lint("#include <cstdlib>\n"
                      "int f() { srand(42); return std::rand(); }\n");
  EXPECT_EQ(count_rule(d, "SSN-L002"), 2);
}

TEST(SsnlintL002, IgnoresMemberNamedRandAndMt19937) {
  EXPECT_EQ(count_rule(lint("int f(Gen& g) { return g.rand(); }\n"), "SSN-L002"), 0);
  EXPECT_EQ(count_rule(lint("double f() { std::mt19937 rng(7); return 0.5; }\n"),
                       "SSN-L002"), 0);
}

// --- SSN-L003: unguarded solver entry points --------------------------------

TEST(SsnlintL003, FlagsUnguardedSolver) {
  const auto d = lint("Vector solve_system(const Matrix& a, const Vector& b) {\n"
                      "  return lu(a).back_substitute(b);\n"
                      "}\n");
  ASSERT_EQ(count_rule(d, "SSN-L003"), 1);
  EXPECT_EQ(d[0].line, 1);
}

TEST(SsnlintL003, GuardedSolverIsClean) {
  EXPECT_EQ(count_rule(lint("Vector solve_system(const Matrix& a, const Vector& b) {\n"
                            "  SSN_REQUIRE(a.rows() == b.size(), \"shape\");\n"
                            "  return lu(a).back_substitute(b);\n"
                            "}\n"),
                       "SSN-L003"), 0);
  EXPECT_EQ(count_rule(lint("Vector rk45(const Rhs& f, Vector y0) {\n"
                            "  SSN_ASSERT_FINITE(y0);\n"
                            "  return y0;\n"
                            "}\n"),
                       "SSN-L003"), 0);
}

TEST(SsnlintL003, PrototypesAndCallsAreNotDefinitions) {
  EXPECT_EQ(count_rule(lint("Vector solve_system(const Matrix&, const Vector&);\n"),
                       "SSN-L003"), 0);
  EXPECT_EQ(count_rule(lint("void g() { auto x = solve_system(a, b); }\n"),
                       "SSN-L003"), 0);
  EXPECT_EQ(count_rule(lint("void g() { auto x = lu.solve(b); }\n"), "SSN-L003"), 0);
}

TEST(SsnlintL003, NonSolverNamesAreNotFlagged) {
  EXPECT_EQ(count_rule(lint("int frobnicate(int x) { return x; }\n"), "SSN-L003"), 0);
  EXPECT_EQ(count_rule(lint("int run_cli(int argc) { return argc; }\n"), "SSN-L003"), 0);
}

// --- SSN-L004: uninitialized double members ---------------------------------

TEST(SsnlintL004, FlagsBareDoubleMember) {
  const auto d = lint("struct Point {\n  double x;\n  double y = 0.0;\n  int n;\n};\n");
  ASSERT_EQ(count_rule(d, "SSN-L004"), 1);
  EXPECT_EQ(d[0].line, 2);
  EXPECT_NE(d[0].message.find("'double x'"), std::string::npos);
}

TEST(SsnlintL004, FlagsEachNameInCommaList) {
  EXPECT_EQ(count_rule(lint("struct Q { double a, b; };\n"), "SSN-L004"), 2);
  EXPECT_EQ(count_rule(lint("struct Q { double a = 1.0, b; };\n"), "SSN-L004"), 1);
}

TEST(SsnlintL004, InitializedAndNonMemberDoublesAreClean) {
  EXPECT_EQ(count_rule(lint("struct P { double x = 0.0; double y{1.0}; };\n"),
                       "SSN-L004"), 0);
  // Function parameters and locals inside member functions are not members.
  EXPECT_EQ(count_rule(lint("struct P {\n"
                            "  double f(double v) const { double t = v; return t; }\n"
                            "  double z = 0.0;\n"
                            "};\n"),
                       "SSN-L004"), 0);
  // Free functions are not structs.
  EXPECT_EQ(count_rule(lint("double f() { double local; return local; }\n"),
                       "SSN-L004"), 0);
}

// --- SSN-L005: catch (...) swallowing ---------------------------------------

TEST(SsnlintL005, FlagsSwallowingCatchAll) {
  const auto d = lint("void f() {\n  try { g(); } catch (...) { count++; }\n}\n");
  ASSERT_EQ(count_rule(d, "SSN-L005"), 1);
  EXPECT_EQ(d[0].line, 2);
}

TEST(SsnlintL005, RethrowingCatchAllIsClean) {
  EXPECT_EQ(count_rule(lint("void f() {\n"
                            "  try { g(); } catch (...) { cleanup(); throw; }\n"
                            "}\n"),
                       "SSN-L005"), 0);
  EXPECT_EQ(count_rule(lint("void f() {\n"
                            "  try { g(); } catch (const std::exception& e) { log(e); }\n"
                            "}\n"),
                       "SSN-L005"), 0);
}

// --- SSN-L006: bare runtime_error in solver code ----------------------------

TEST(SsnlintL006, FlagsBareRuntimeErrorInSolverLayers) {
  const std::string src =
      "void f() { throw std::runtime_error(\"singular\"); }\n";
  EXPECT_EQ(count_rule(lint_source("src/sim/engine.cpp", src), "SSN-L006"), 1);
  EXPECT_EQ(count_rule(lint_source("src/numeric/lu.cpp", src), "SSN-L006"), 1);
  // Unqualified spelling (using std::runtime_error) is caught too.
  EXPECT_EQ(count_rule(lint_source("src/sim/x.cpp",
                                   "void f() { throw runtime_error(\"x\"); }\n"),
                       "SSN-L006"),
            1);
}

TEST(SsnlintL006, OtherLayersAndTypedThrowsAreClean) {
  const std::string bare =
      "void f() { throw std::runtime_error(\"boom\"); }\n";
  EXPECT_EQ(count_rule(lint_source("src/waveform/waveform.cpp", bare),
                       "SSN-L006"), 0);
  EXPECT_EQ(count_rule(lint_source("fixture.cpp", bare), "SSN-L006"), 0);
  // The typed SolverError (which derives runtime_error) does not trip it.
  EXPECT_EQ(count_rule(lint_source(
                "src/sim/engine.cpp",
                "void f() { throw support::SolverError(kind, \"m\", d); }\n"),
            "SSN-L006"), 0);
  // Deriving from runtime_error is fine; only throwing it bare is not.
  EXPECT_EQ(count_rule(lint_source(
                "src/numeric/x.hpp",
                "class E : public std::runtime_error { using runtime_error::runtime_error; };\n"),
            "SSN-L006"), 0);
}

TEST(SsnlintL006, SuppressionWorks) {
  EXPECT_EQ(count_rule(lint_source(
                "src/sim/legacy.cpp",
                "void f() {\n"
                "  throw std::runtime_error(\"x\");  // ssnlint-ignore(SSN-L006)\n"
                "}\n"),
            "SSN-L006"), 0);
}

// --- SSN-L007: bare numeric-conversion calls --------------------------------

TEST(SsnlintL007, FlagsBareStodAndFriends) {
  const auto d = lint("double f(const std::string& s) { return std::stod(s); }\n");
  ASSERT_EQ(count_rule(d, "SSN-L007"), 1);
  EXPECT_EQ(d[0].line, 1);
  EXPECT_EQ(count_rule(lint("int f(const char* s) { return atoi(s); }\n"),
            "SSN-L007"), 1);
  EXPECT_EQ(count_rule(lint("long f(const char* s) { return strtol(s, nullptr, 10); }\n"),
            "SSN-L007"), 1);
  EXPECT_EQ(count_rule(lint("int f(const std::string& s) { return std::stoll(s); }\n"),
            "SSN-L007"), 1);
}

TEST(SsnlintL007, HardenedParserFileIsAllowlisted) {
  const std::string src =
      "double f(const std::string& s) { return std::stod(s); }\n";
  EXPECT_EQ(count_rule(lint_source("src/io/diagnostics.cpp", src), "SSN-L007"), 0);
  // Only that exact file: same name elsewhere still fires.
  EXPECT_EQ(count_rule(lint_source("src/sim/diagnostics.cpp", src), "SSN-L007"), 1);
  EXPECT_EQ(count_rule(lint_source("src/io/csv.cpp", src), "SSN-L007"), 1);
}

TEST(SsnlintL007, MemberCallsAndNonCallsAreClean) {
  // A member function named stod on an unrelated object is not the banned
  // std:: free function.
  EXPECT_EQ(count_rule(lint("double f(Conv& c) { return c.stod(\"1\"); }\n"),
            "SSN-L007"), 0);
  EXPECT_EQ(count_rule(lint("double f(Conv* c) { return c->stoi(\"1\"); }\n"),
            "SSN-L007"), 0);
  // Mentioning the name without calling it is fine.
  EXPECT_EQ(count_rule(lint("int stod_count = 0; // not a call\n"), "SSN-L007"), 0);
}

TEST(SsnlintL007, SuppressionWorks) {
  EXPECT_EQ(count_rule(lint(
                "double f(const std::string& s) {\n"
                "  return std::stod(s);  // ssnlint-ignore(SSN-L007)\n"
                "}\n"),
            "SSN-L007"), 0);
}

// --- SSN-L008: dense matrix builds inside loops in solver code --------------

TEST(SsnlintL008, FlagsMatrixCtorInLoopInSolverLayer) {
  const std::string src =
      "void newton() {\n"
      "  for (int it = 0; it < 50; ++it) {\n"
      "    Matrix a(n, n);\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(count_rule(lint_source("src/sim/engine.cpp", src), "SSN-L008"), 1);
  EXPECT_EQ(count_rule(lint_source("src/numeric/ode.cpp", src), "SSN-L008"), 1);
  // Outside the solver layers the pattern is fine.
  EXPECT_EQ(count_rule(lint_source("src/analysis/sweeps.cpp", src), "SSN-L008"),
            0);
  EXPECT_EQ(count_rule(lint_source("fixture.cpp", src), "SSN-L008"), 0);
}

TEST(SsnlintL008, FlagsFromDenseAndTemporariesInLoops) {
  EXPECT_EQ(count_rule(lint_source(
                "src/sim/x.cpp",
                "void f() {\n"
                "  while (!done) {\n"
                "    auto s = SparseMatrix::from_dense(a);\n"
                "  }\n"
                "}\n"),
            "SSN-L008"), 1);
  EXPECT_EQ(count_rule(lint_source(
                "src/numeric/x.cpp",
                "void f() { do { use(Matrix(n, n)); } while (again()); }\n"),
            "SSN-L008"), 1);
  // Braceless single-statement loop body.
  EXPECT_EQ(count_rule(lint_source(
                "src/sim/x.cpp",
                "void f() {\n"
                "  for (int i = 0; i < k; ++i) frob(Matrix(n, n));\n"
                "}\n"),
            "SSN-L008"), 1);
}

TEST(SsnlintL008, QuietOutsideLoopsAndForReferences) {
  // A loop-free dense build (setup / factor-once) is fine.
  EXPECT_EQ(count_rule(lint_source("src/sim/x.cpp",
                                   "void f() { Matrix a(n, n); fill(a); }\n"),
            "SSN-L008"), 0);
  // References and parameters inside loops are not constructions.
  EXPECT_EQ(count_rule(lint_source(
                "src/sim/x.cpp",
                "void f(const Matrix& a) {\n"
                "  for (int i = 0; i < k; ++i) { stamp(a, i); }\n"
                "}\n"),
            "SSN-L008"), 0);
  // Member access named from_dense on another object is out of scope.
  EXPECT_EQ(count_rule(lint_source(
                "src/sim/x.cpp",
                "void f(Conv& c) { while (go()) { c.from_dense(a); } }\n"),
            "SSN-L008"), 0);
}

TEST(SsnlintL008, SuppressionWorks) {
  EXPECT_EQ(count_rule(lint_source(
                "src/numeric/levenberg_marquardt.cpp",
                "void f() {\n"
                "  for (int it = 0; it < 50; ++it) {\n"
                "    Matrix jtj(n, n);  // ssnlint-ignore(SSN-L008)\n"
                "  }\n"
                "}\n"),
            "SSN-L008"), 0);
}

// --- stripper ---------------------------------------------------------------

TEST(SsnlintStrip, CommentsAndStringsDoNotTrigger) {
  EXPECT_TRUE(lint("// bool f(double x) { return x == 0.3; }\n").empty());
  EXPECT_TRUE(lint("/* x == 0.3 and rand() live here */ int f();\n").empty());
  EXPECT_TRUE(lint("const char* s = \"x == 0.3 rand()\";\n").empty());
  EXPECT_TRUE(lint("const char* s = R\"(x == 0.3)\";\n").empty());
}

TEST(SsnlintStrip, LineNumbersSurviveMultilineComments) {
  const auto d = lint("/* a\n   b\n   c */\nbool f(double x) { return x == 0.3; }\n");
  ASSERT_EQ(int(d.size()), 1);
  EXPECT_EQ(d[0].line, 4);
}

TEST(SsnlintDriver, DiagnosticsAreSortedAndCountRules) {
  const auto d = lint("struct P { double x; };\n"
                      "bool f(double v) { return v == 0.25; }\n");
  ASSERT_EQ(int(d.size()), 2);
  EXPECT_LE(d[0].line, d[1].line);
  EXPECT_EQ(int(ssnlint::rule_catalog().size()), 14);
}

// --- SSN-L009: lifecycle hygiene --------------------------------------------

TEST(SsnlintL009, FlagsRawSignalCallsOutsideSupport) {
  const std::string sig = "void f() { signal(2, handler); }\n";
  const std::string act =
      "void f() { struct sigaction sa; sigaction(15, &sa, nullptr); }\n";
  const std::string rse = "void f() { std::raise(15); }\n";
  EXPECT_EQ(count_rule(lint_source("src/cli/commands.cpp", sig), "SSN-L009"), 1);
  // The declaration `struct sigaction sa;` is not a call; only the actual
  // sigaction(...) invocation fires.
  EXPECT_EQ(count_rule(lint_source("src/analysis/x.cpp", act), "SSN-L009"), 1);
  EXPECT_EQ(count_rule(lint_source("src/io/x.cpp", rse), "SSN-L009"), 1);
  // The support layer owns signal handling (ScopedSignalCancel lives there).
  EXPECT_EQ(count_rule(lint_source("src/support/runcontext.cpp", sig),
                       "SSN-L009"), 0);
  EXPECT_EQ(count_rule(lint_source("src/support/runcontext.cpp", act),
                       "SSN-L009"), 0);
  // Member calls on unrelated objects are not signal management.
  EXPECT_EQ(count_rule(lint_source("src/cli/x.cpp",
                                   "void f() { bus.raise(alarm); }\n"),
            "SSN-L009"), 0);
}

TEST(SsnlintL009, FlagsUnboundedAnalysisLoopsWithoutLifecyclePolling) {
  const std::string spin =
      "void drain() {\n"
      "  while (true) {\n"
      "    step();\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(count_rule(lint_source("src/analysis/montecarlo.cpp", spin),
                       "SSN-L009"), 1);
  EXPECT_EQ(count_rule(lint_source("src/analysis/x.cpp",
                                   "void f() { while (1) step(); }\n"),
            "SSN-L009"), 1);
  EXPECT_EQ(count_rule(lint_source("src/analysis/x.cpp",
                                   "void f() { for (;;) { step(); } }\n"),
            "SSN-L009"), 1);
  // Outside src/analysis the loop rule does not apply (the engine's stepping
  // loop is bounded by t_stop/max_steps and polls run_ctx itself).
  EXPECT_EQ(count_rule(lint_source("src/sim/engine.cpp", spin), "SSN-L009"), 0);
}

TEST(SsnlintL009, QuietWhenLoopPollsLifecycleLayer) {
  EXPECT_EQ(count_rule(lint_source(
                "src/analysis/x.cpp",
                "void f(const RunContext* ctx) {\n"
                "  while (true) {\n"
                "    if (ctx->stop_requested() != StopReason::kNone) break;\n"
                "    step();\n"
                "  }\n"
                "}\n"),
            "SSN-L009"), 0);
  EXPECT_EQ(count_rule(lint_source(
                "src/analysis/x.cpp",
                "void f(const RunContext& ctx) {\n"
                "  for (;;) {\n"
                "    if (!ctx.try_start_item()) break;\n"
                "    step();\n"
                "  }\n"
                "}\n"),
            "SSN-L009"), 0);
  // Bounded loops are fine regardless.
  EXPECT_EQ(count_rule(lint_source(
                "src/analysis/x.cpp",
                "void f() { for (int i = 0; i < n; ++i) step(i); }\n"),
            "SSN-L009"), 0);
}

TEST(SsnlintL009, SuppressionWorks) {
  EXPECT_EQ(count_rule(lint_source(
                "src/cli/x.cpp",
                "// ssnlint-ignore(SSN-L009)\n"
                "void f() { signal(2, handler); }\n"),
            "SSN-L009"), 0);
}

// --- SSN-L014: raw process-management syscalls ------------------------------

TEST(SsnlintL014, FlagsRawProcessCallsOutsideSanctionedHomes) {
  EXPECT_EQ(count_rule(lint_source("src/analysis/x.cpp",
                                   "int f() { return fork(); }\n"),
                       "SSN-L014"), 1);
  EXPECT_EQ(count_rule(lint_source("src/cli/x.cpp",
                                   "void f(int p) { kill(p, 9); }\n"),
                       "SSN-L014"), 1);
  EXPECT_EQ(count_rule(lint_source(
                "src/serve/server.cpp",
                "void f(int p) { int s; waitpid(p, &s, 0); }\n"),
            "SSN-L014"), 1);
  EXPECT_EQ(count_rule(lint_source("src/io/x.cpp",
                                   "void f(char** a) { execvp(a[0], a); }\n"),
                       "SSN-L014"), 1);
}

TEST(SsnlintL014, QuietInSupportAndSupervisor) {
  EXPECT_EQ(count_rule(lint_source("src/support/subprocess.cpp",
                                   "int f() { return fork(); }\n"),
                       "SSN-L014"), 0);
  EXPECT_EQ(count_rule(lint_source("src/support/crashclean.cpp",
                                   "void f(int p) { kill(p, 9); }\n"),
                       "SSN-L014"), 0);
  EXPECT_EQ(count_rule(lint_source(
                "src/serve/supervisor.cpp",
                "void f(int p) { int s; waitpid(p, &s, 0); }\n"),
            "SSN-L014"), 0);
}

TEST(SsnlintL014, QuietOnMemberCallsAndNonCallUses) {
  EXPECT_EQ(count_rule(lint_source("src/serve/server.cpp",
                                   "void f(CV& cv, L& l) { cv.wait(l); }\n"),
            "SSN-L014"), 0);
  EXPECT_EQ(count_rule(lint_source("src/analysis/x.cpp",
                                   "void f(P* p) { p->kill(); }\n"),
            "SSN-L014"), 0);
  EXPECT_EQ(count_rule(lint_source("src/analysis/x.cpp",
                                   "int f() { int fork = 0; return fork; }\n"),
            "SSN-L014"), 0);
  EXPECT_EQ(count_rule(lint_source(
                "src/serve/server.cpp",
                "void f(long p) { support::kill_child(p); }\n"),
            "SSN-L014"), 0);
}

TEST(SsnlintL014, SuppressionWorks) {
  EXPECT_EQ(count_rule(lint_source(
                "src/cli/x.cpp",
                "// ssnlint-ignore(SSN-L014)\n"
                "void f(int p) { kill(p, 9); }\n"),
            "SSN-L014"), 0);
}

// --- SSN-L013: result consumed without a status/trust check -----------------

TEST(SsnlintL013, FlagsChainedTemporaryAccess) {
  EXPECT_EQ(count_rule(
                lint("double f(int s) { return measure_ssn(s).v_max; }\n"),
                "SSN-L013"), 1);
  EXPECT_EQ(count_rule(
                lint("void f(R& r, int s) {\n"
                     "  r.v = analysis::monte_carlo_vmax(s).mean;\n"
                     "}\n"),
                "SSN-L013"), 1);
}

TEST(SsnlintL013, CapacitanceSweepIsAResultProducer) {
  // Its BatchSummary carries degraded/failed points and the stop reason,
  // exactly like run_driver_sweep's.
  EXPECT_EQ(count_rule(
                lint("void f(const Config& c) {\n"
                     "  const auto result = analysis::run_capacitance_sweep(c);\n"
                     "  for (const auto& r : result.rows) use(r.sim);\n"
                     "}\n"),
                "SSN-L013"), 1);
  EXPECT_EQ(count_rule(
                lint("void f(const Config& c) {\n"
                     "  const auto result = analysis::run_capacitance_sweep(c);\n"
                     "  for (const auto& r : result.rows) use(r.sim);\n"
                     "  if (!result.summary.all_full_fidelity()) warn();\n"
                     "}\n"),
                "SSN-L013"), 0);
}

TEST(SsnlintL013, FlagsNamedResultWithOnlyValueReads) {
  EXPECT_EQ(count_rule(
                lint("double f(int s) {\n"
                     "  const auto mc = monte_carlo_vmax(s);\n"
                     "  return mc.mean + mc.p95;\n"
                     "}\n"),
                "SSN-L013"), 1);
}

TEST(SsnlintL013, StatusInspectionAnywhereOnTheChainIsClean) {
  EXPECT_EQ(count_rule(
                lint("double f(int s) {\n"
                     "  const auto mc = monte_carlo_vmax(s);\n"
                     "  if (mc.stop != 0) return 0.0;\n"
                     "  return mc.mean;\n"
                     "}\n"),
                "SSN-L013"), 0);
  // The status member may sit deeper in the chain (.measurement.trust).
  EXPECT_EQ(count_rule(
                lint("double f(int s) {\n"
                     "  const auto m = measure_ssn_resilient(s);\n"
                     "  log(m.measurement.trust.verdict);\n"
                     "  return m.measurement.v_max;\n"
                     "}\n"),
                "SSN-L013"), 0);
  // A chained temporary whose member IS the status check is fine.
  EXPECT_EQ(count_rule(
                lint("bool f(int s) { return measure_ssn_resilient(s).ok(); }\n"),
                "SSN-L013"), 0);
}

TEST(SsnlintL013, ForwardingTheResultDelegatesTheObligation) {
  // Passing the result to a function (verify_measurement here) delegates.
  EXPECT_EQ(count_rule(
                lint("double f(int s) {\n"
                     "  auto m = measure_ssn(s);\n"
                     "  verify_measurement(m);\n"
                     "  return m.v_max;\n"
                     "}\n"),
                "SSN-L013"), 0);
  // Returning the whole result forwards it to the caller.
  EXPECT_EQ(count_rule(
                lint("M f(int s) { return measure_ssn(s); }\n"),
                "SSN-L013"), 0);
}

TEST(SsnlintL013, DefinitionsAndPrototypesAreNotConsumptionSites) {
  EXPECT_EQ(count_rule(
                lint("M measure_ssn(int spec);\n"
                     "M measure_ssn(int spec) { M m; return m; }\n"),
                "SSN-L013"), 0);
  // A member call named like a producer on an unrelated object is not one.
  EXPECT_EQ(count_rule(
                lint("double f(Lab& lab) { return lab.measure_ssn(1).v; }\n"),
                "SSN-L013"), 0);
}

TEST(SsnlintL013, SuppressionWorks) {
  EXPECT_EQ(count_rule(
                lint("double f(int s) {\n"
                     "  // failures surface as thrown SolverError here\n"
                     "  return measure_ssn(s).v_max;  // ssnlint-ignore(SSN-L013)\n"
                     "}\n"),
                "SSN-L013"), 0);
}

// --- tokenizer edge cases ---------------------------------------------------

TEST(SsnlintStrip, RawStringsSpanningLinesKeepLineNumbers) {
  const auto d = lint(
      "const char* s = R\"(line1\n"
      "x == 0.3\n"
      ")\";\n"
      "bool f(double x) { return x == 0.5; }\n");
  ASSERT_EQ(int(d.size()), 1);
  EXPECT_EQ(d[0].rule, "SSN-L001");
  EXPECT_EQ(d[0].line, 4);
}

TEST(SsnlintStrip, CustomRawDelimitersAndEncodingPrefixes) {
  const auto d = lint(
      "const char* a = R\"ssn(x == 0.25)ssn\";\n"
      "const wchar_t* b = LR\"(x == 0.25)\";\n"
      "const char* c = u8R\"(x == 0.25)\";\n"
      "bool f(double x) { return x == 0.5; }\n");
  ASSERT_EQ(int(d.size()), 1);
  EXPECT_EQ(d[0].line, 4);
}

TEST(SsnlintStrip, DigitSeparatorsAreNotCharLiterals) {
  // If 1'000'000 opened a char literal, everything after it would be
  // swallowed as string content and the comparison below would vanish.
  const auto d =
      lint("bool f(double x) { int big = 1'000'000; return x == 0.25; }\n");
  EXPECT_EQ(count_rule(d, "SSN-L001"), 1);
  EXPECT_EQ(count_rule(lint("double g() { return 1'000.5; }\n"), "SSN-L001"), 0);
}

TEST(SsnlintStrip, EncodedCharLiteralsAreStillCharLiterals) {
  // u8'...' / L'...' open character literals (their quotes are not digit
  // separators); the quote inside survives without desyncing the lexer.
  const auto d = lint(
      "bool f(double x) { char c = u8'\"'; wchar_t w = L'\\''; "
      "return x == 0.5; }\n");
  EXPECT_EQ(count_rule(d, "SSN-L001"), 1);
}

TEST(SsnlintStrip, BackslashNewlineInsideStringKeepsLineNumbers) {
  const auto d = lint(
      "const char* s = \"abc\\\n"
      "def\";\n"
      "bool f(double x) { return x == 0.5; }\n");
  ASSERT_EQ(int(d.size()), 1);
  EXPECT_EQ(d[0].line, 3);
}

TEST(SsnlintStrip, UserDefinedLiteralsLexAsOneToken) {
  const auto d = lint(
      "bool f(double x) { auto y = 12.5_nH; (void)y; return x == 0.5; }\n");
  EXPECT_EQ(count_rule(d, "SSN-L001"), 1);
}

// --- fingerprints / baseline / SARIF ----------------------------------------

TEST(SsnlintFingerprint, StableAcrossLineShiftsAndReindentation) {
  const auto a = lint("bool f(double x) { return x == 0.25; }\n");
  const auto b = lint("\n\n    bool f(double x) { return x == 0.25; }\n");
  ASSERT_EQ(int(a.size()), 1);
  ASSERT_EQ(int(b.size()), 1);
  EXPECT_NE(a[0].line, b[0].line);
  EXPECT_EQ(a[0].fingerprint, b[0].fingerprint);
  EXPECT_EQ(int(a[0].fingerprint.size()), 16);
  // The basename, not the directory, participates: a move between layers
  // does not invalidate a baseline.
  const auto c = lint_source("src/analysis/fixture.cpp",
                             "bool f(double x) { return x == 0.25; }\n");
  ASSERT_EQ(int(c.size()), 1);
  EXPECT_EQ(a[0].fingerprint, c[0].fingerprint);
}

TEST(SsnlintBaseline, AppliedFingerprintsSuppressFindings) {
  const auto d = lint("bool f(double x) { return x == 0.25; }\n");
  ASSERT_EQ(int(d.size()), 1);
  std::size_t suppressed = 0;
  const auto kept =
      ssnlint::apply_baseline(d, {d[0].fingerprint}, &suppressed);
  EXPECT_TRUE(kept.empty());
  EXPECT_EQ(suppressed, 1u);
  std::ostringstream os;
  ssnlint::write_baseline(os, d);
  // Round-trip: the written file's first field is the same fingerprint.
  EXPECT_NE(os.str().find("\n" + d[0].fingerprint + " SSN-L001"),
            std::string::npos);
}

TEST(SsnlintSarif, EmitsCatalogResultsAndPartialFingerprints) {
  const auto d = lint("bool f(double x) { return x == 0.25; }\n");
  std::ostringstream os;
  ssnlint::write_sarif(os, d);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(s.find("\"id\": \"SSN-L012\""), std::string::npos);  // catalog
  EXPECT_NE(s.find("\"ruleId\": \"SSN-L001\""), std::string::npos);
  EXPECT_NE(s.find("\"ssnlintFingerprint/v1\": \"" + d[0].fingerprint),
            std::string::npos);
}

// --- whole-project fixtures (tests/lint/) -----------------------------------

namespace fs = std::filesystem;

std::vector<fs::path> tree_files(const std::string& tree) {
  std::vector<fs::path> files;
  for (const auto& e : fs::recursive_directory_iterator(
           fs::path(SSNLINT_FIXTURE_DIR) / tree))
    if (e.is_regular_file() && ssnlint::lintable_extension(e.path()))
      files.push_back(e.path());
  std::sort(files.begin(), files.end());
  return files;
}

int count_message(const std::vector<Diagnostic>& diags, const std::string& s) {
  return int(std::count_if(diags.begin(), diags.end(), [&](const Diagnostic& d) {
    return d.message.find(s) != std::string::npos;
  }));
}

TEST(SsnlintL010, FiresOnUpwardIncludesAndCycles) {
  const auto proj = ssnlint::load_project(tree_files("layering_bad"));
  std::vector<Diagnostic> out;
  ssnlint::pass_layering(proj, out);
  EXPECT_EQ(count_rule(out, "SSN-L010"), 4);
  EXPECT_EQ(count_message(out, "upward include"), 1);
  EXPECT_EQ(count_message(out, "include cycle"), 2);
  EXPECT_EQ(count_message(out, "layer cycle"), 1);
}

TEST(SsnlintL010, QuietOnDownwardIncludes) {
  const auto proj = ssnlint::load_project(tree_files("layering_good"));
  std::vector<Diagnostic> out;
  ssnlint::pass_layering(proj, out);
  EXPECT_TRUE(out.empty());
}

TEST(SsnlintL011, FiresOnFixtureUnitMixes) {
  const auto proj = ssnlint::load_project(tree_files("units_bad"));
  std::vector<Diagnostic> out;
  ssnlint::pass_units(proj, out);
  ASSERT_EQ(count_rule(out, "SSN-L011"), 2);
  EXPECT_EQ(count_message(out, "[V] and [A]"), 1);
  EXPECT_EQ(count_message(out, "[H] and [F]"), 1);
}

TEST(SsnlintL011, QuietOnConsistentFixture) {
  const auto proj = ssnlint::load_project(tree_files("units_good"));
  std::vector<Diagnostic> out;
  ssnlint::pass_units(proj, out);
  EXPECT_TRUE(out.empty());
}

// In-memory units checks: suffix conventions and transcendental arguments.

std::vector<Diagnostic> lint_units(const std::string& path,
                                   const std::string& src) {
  ssnlint::FileInfo info;
  info.display = path;
  info.path = fs::path(path);
  ssnlint::detail::classify_layer(info.path, info.layer, info.rank, info.root);
  info.source = src;
  info.stripped = ssnlint::strip_source(src);
  std::vector<Diagnostic> out;
  ssnlint::pass_units_file(info, out);
  return out;
}

TEST(SsnlintL011, SuffixConventionSeedsUnits) {
  EXPECT_EQ(count_rule(lint_units("src/core/x.cpp",
                                  "double f(double l_h, double c_f) {\n"
                                  "  return l_h + c_f;\n"
                                  "}\n"),
            "SSN-L011"), 1);
  EXPECT_EQ(count_rule(lint_units("src/core/x.cpp",
                                  "double f(double v_a, double v_b) {\n"
                                  "  return v_a + v_b;\n"  // both amps
                                  "}\n"),
            "SSN-L011"), 0);
}

TEST(SsnlintL011, TranscendentalsWantDimensionlessArguments) {
  EXPECT_EQ(count_rule(lint_units("src/core/x.cpp",
                                  "// ssn-units: t=s\n"
                                  "double f(double t) { return std::exp(t); }\n"),
            "SSN-L011"), 1);
  EXPECT_EQ(count_rule(lint_units("src/core/x.cpp",
                                  "// ssn-units: t=s, tau=s\n"
                                  "double f(double t, double tau) {\n"
                                  "  return std::exp(t / tau);\n"
                                  "}\n"),
            "SSN-L011"), 0);
}

TEST(SsnlintL011, OutsideModelLayersOnlyAnnotatedFilesParticipate) {
  const std::string src =
      "double f(double l_h, double c_f) { return l_h + c_f; }\n";
  EXPECT_EQ(count_rule(lint_units("src/io/x.cpp", src), "SSN-L011"), 0);
  EXPECT_EQ(count_rule(lint_units("src/io/x.cpp",
                                  "// ssn-units: scale=1\n" + src),
            "SSN-L011"), 1);
}

TEST(SsnlintL012, FiresOnBrokenRegistryFixture) {
  const auto proj = ssnlint::load_project(tree_files("registry_bad"));
  ssnlint::RegistryOptions reg;
  reg.doc_files = {fs::path(SSNLINT_FIXTURE_DIR) / "registry_bad" / "docs" /
                   "CATALOG.md"};
  reg.full_surface = true;
  std::vector<Diagnostic> out;
  ssnlint::pass_registry(proj, reg, out);
  EXPECT_EQ(count_rule(out, "SSN-L012"), 3);
  EXPECT_EQ(count_message(out, "undocumented diagnostic code SSN-E901"), 1);
  EXPECT_EQ(count_message(out, "duplicate catalog row for SSN-E902"), 1);
  EXPECT_EQ(count_message(out, "dead catalog row: SSN-E902"), 1);
  // Without the full-surface claim the dead-row check stands down.
  std::vector<Diagnostic> partial;
  reg.full_surface = false;
  ssnlint::pass_registry(proj, reg, partial);
  EXPECT_EQ(count_rule(partial, "SSN-L012"), 2);
  EXPECT_EQ(count_message(partial, "dead catalog row"), 0);
}

TEST(SsnlintL012, QuietOnCleanRegistryFixture) {
  const auto proj = ssnlint::load_project(tree_files("registry_good"));
  ssnlint::RegistryOptions reg;
  reg.doc_files = {fs::path(SSNLINT_FIXTURE_DIR) / "registry_good" / "docs" /
                   "CATALOG.md"};
  reg.full_surface = true;
  std::vector<Diagnostic> out;
  ssnlint::pass_registry(proj, reg, out);
  EXPECT_TRUE(out.empty());
}

}  // namespace
