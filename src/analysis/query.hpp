// One query path for estimate (with its optional simulator verify),
// closed-form Monte Carlo and sweep-n. The CLI and the serve daemon both
// parse into a Query, call run_query and only render the QueryResult (as a
// table/CSV or as JSON), so the same question gets the same numbers and the
// same trust verdict from either front end.
#pragma once

#include "analysis/calibrate.hpp"
#include "analysis/measure.hpp"
#include "analysis/montecarlo.hpp"
#include "analysis/sweeps.hpp"
#include "core/scenario.hpp"
#include "sim/recovery.hpp"
#include "support/journal.hpp"
#include "support/runcontext.hpp"
#include "verify/trust.hpp"

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ssnkit::analysis {

// ssn-units: inductance=H, capacitance=F, rise_time=s
/// Every input that affects a query's result, and nothing else. Field
/// semantics match the CLI flags of estimate / mc / sweep-n and the serve
/// protocol's request members.
struct Query {
  std::string cmd;           ///< "estimate" | "mc" | "sweep-n"
  std::string tech = "180nm";
  std::string golden = "alpha";
  std::string package = "pga";
  int pads = 1;              ///< parallel ground pads (divides L)
  double inductance = -1.0;  ///< [H] override; < 0 = package default
  double capacitance = -1.0; ///< [F] override; < 0 = package default
  int n_drivers = 8;
  double rise_time = 0.1e-9; ///< [s] input ramp
  bool include_c = true;     ///< false = Section 3 L-only model
  bool sim = false;          ///< estimate: verify on the MNA simulator
  int samples = 1000;        ///< mc: closed-form sample count
  int seed = 12345;          ///< mc: PRNG seed
  int max_n = 16;            ///< sweep-n: largest driver count
};

/// Canonical identity of a query: equal strings give bit-identical results.
/// The serve cache keys (and spills) its entries on it, so its bytes,
/// including the leading "serve-v1" tag, are a stored format.
std::string canonical_string(const Query& query);

/// The query's package: the named package with its pads and l/c overrides.
process::Package package_for(const Query& query);

/// The with-C rule: model the pad capacitance when the query asks for it
/// and the package has one (`c = 0` selects the L-only model).
bool includes_c(const Query& query, const process::Package& package);

/// Golden device family by name ("alpha" / "bsim"); throws
/// std::invalid_argument on any other name.
process::GoldenKind golden_kind(const std::string& name);

/// Fit the calibration for a technology / golden-family name pair.
Calibration calibrate_named(const std::string& tech, const std::string& golden);

/// sweep-n's driver counts: 1, 2, 3, 4, then every other count to max_n.
std::vector<int> driver_count_ladder(int max_n);

/// How to run a query; none of it affects the result.
struct QueryExec {
  int threads = 1;  ///< mc / sweep-n workers: 1 = serial, 0 = auto
  /// Lifecycle context; a stop drains mc / sweep-n (keeping what finished)
  /// and interrupts an estimate's simulation. Not owned, nor are sweep-n's
  /// checkpoint journal and resume set.
  const support::RunContext* run_ctx = nullptr;
  support::BatchJournal* journal = nullptr;
  const std::map<std::size_t, support::PointRecord>* resume = nullptr;
};

/// A query's answer; which members are filled depends on the command.
struct QueryResult {
  process::Package package;    ///< the resolved package
  bool with_c = false;         ///< the with-C rule's outcome
  core::SsnScenario scenario;  ///< estimate / mc: the closed-form scenario
  double v_model = 0.0;        ///< estimate: Table 1 (with C) or Eqn 7
  std::optional<SsnMeasurement> simulated;  ///< estimate with sim
  sim::Fidelity fidelity = sim::Fidelity::kFullDevice;  ///< of `simulated`
  MonteCarloResult mc;         ///< mc
  DriverSweepResult sweep;     ///< sweep-n
  /// estimate: the closed-form self-check, then (sim) the engine's report
  /// and the 3 % cross-check; mc: its confidence interval; sweep-n: the
  /// per-row fidelities.
  verify::TrustReport trust;
  /// kNone unless stopped early: mc / sweep-n keep what finished, an
  /// estimate's numbers are partial.
  support::StopReason stop = support::StopReason::kNone;
};

/// Answer one query. Throws on invalid input and on a simulation failure
/// no recovery rung could absorb; a cooperative stop is reported in
/// `stop`, never thrown.
QueryResult run_query(const Query& query, const Calibration& calibration,
                      const QueryExec& exec = {});

}  // namespace ssnkit::analysis
