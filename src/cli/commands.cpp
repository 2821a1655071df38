#include "cli/commands.hpp"

#include "analysis/calibrate.hpp"
#include "analysis/design.hpp"
#include "analysis/measure.hpp"
#include "analysis/montecarlo.hpp"
#include "analysis/query.hpp"
#include "analysis/sensitivity.hpp"
#include "analysis/sweeps.hpp"
#include "circuit/netlist.hpp"
#include "circuit/testbench.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "core/l_only_model.hpp"
#include "core/lc_model.hpp"
#include "waveform/render.hpp"
#include "support/atomic_file.hpp"
#include "io/table.hpp"
#include "sim/ac.hpp"
#include "sim/engine.hpp"
#include "support/faultinject.hpp"
#include "support/journal.hpp"
#include "support/runcontext.hpp"

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>

namespace ssnkit::cli {

namespace {

process::GoldenKind golden_from(const Args& args) {
  return analysis::golden_kind(args.get_or("golden", "alpha"));
}

process::Technology tech_from(const Args& args) {
  return process::technology_by_name(args.get_or("tech", "180nm"));
}

/// The package flags (--package, --pads, --l, --c) as a query. A negative
/// --l / --c is an error, not the query's "use the package default".
analysis::Query package_query(const Args& args) {
  analysis::Query q;
  q.package = args.get_or("package", q.package);
  q.pads = args.get_int("pads", q.pads);
  for (const char* key : {"l", "c"})
    if (args.get_double(key, 0.0) < 0.0)
      throw std::invalid_argument(std::string("--") + key + " must be >= 0");
  q.inductance = args.get_double("l", q.inductance);
  q.capacitance = args.get_double("c", q.capacitance);
  return q;
}

process::Package package_from(const Args& args) {
  return analysis::package_for(package_query(args));
}

/// The query of estimate / mc / sweep-n: the package flags plus --tech,
/// --golden, --tr and --no-c. Each command reads its own extras, so an
/// option it ignores still draws the unrecognized-option warning.
analysis::Query query_from(const Args& args, const std::string& cmd) {
  analysis::Query q = package_query(args);
  q.cmd = cmd;
  q.tech = args.get_or("tech", q.tech);
  q.golden = args.get_or("golden", q.golden);
  q.rise_time = args.get_double("tr", q.rise_time);
  q.include_c = !args.flag("no-c");
  return q;
}

void warn_unused(const Args& args, std::ostream& os) {
  for (const auto& key : args.unused_keys())
    os << "warning: unrecognized option --" << key << "\n";
}

// --- job lifecycle wiring ---------------------------------------------------

/// One RunContext configured from the lifecycle flags, with the
/// SIGINT/SIGTERM watcher installed for its lifetime. Every batch command
/// constructs one: even without flags, the watcher is what turns Ctrl-C
/// into a graceful drain instead of a lost batch.
struct Lifecycle {
  support::RunContext ctx;
  support::ScopedSignalCancel watcher{ctx};

  explicit Lifecycle(const Args& args) {
    double seconds = -1.0;
    if (args.has("deadline"))
      seconds = args.get_double("deadline", -1.0);
    else if (args.has("max-wall"))
      seconds = args.get_double("max-wall", -1.0);
    if (seconds >= 0.0) ctx.set_timeout(seconds);
    ctx.set_item_budget(args.get_int("max-samples", -1));
  }
};

/// A sweep's health under its table, printed only when something is off:
/// a point that did not run at full fidelity, and a batch trust that is not
/// verified (the note names the rows).
void print_batch_health(std::ostream& os,
                        const analysis::BatchSummary& summary,
                        const verify::TrustReport& trust) {
  if (!summary.all_full_fidelity() || summary.not_run > 0)
    os << "# resilience: " << summary.to_string() << '\n';
  if (trust.verdict != verify::Verdict::kVerified)
    os << "# trust: " << trust.summary() << '\n';
}

/// Standard epilogue for a batch that may have been stopped early: reports
/// what was (not) done and maps a stop onto kExitInterrupted. A completed
/// run returns 0 untouched.
int finish_batch(std::ostream& os, support::StopReason stop,
                 std::size_t completed, std::size_t total,
                 const char* what, const std::string& journal_path) {
  if (stop == support::StopReason::kNone) return 0;
  os << "interrupted (" << support::to_string(stop) << "): " << completed
     << "/" << total << " " << what << " done";
  const int sig = support::ScopedSignalCancel::last_signal();
  if (sig != 0) os << " [signal " << sig << "]";
  os << '\n';
  if (!journal_path.empty())
    os << "resume with: --resume " << journal_path << '\n';
  return kExitInterrupted;
}

/// FNV-1a over the canonical batch configuration. Doubles enter as their
/// exact bit patterns: "the same configuration" means the same IEEE values,
/// not the same rounded text. Thread count is deliberately absent — results
/// are bit-identical for any value, so a journal written at --threads 8 is
/// valid for a resume at --threads 1. The testbench revision is part of it:
/// a journal of simulated points written by an older circuit builder is
/// refused on --resume rather than mixed with this build's numbers.
std::uint64_t batch_config_hash(const std::string& kind,
                                const std::string& tech_name,
                                const std::string& golden,
                                const process::Package& pkg, int n, double tr,
                                bool with_c, long long items, unsigned seed) {
  const auto bits = [](double v) {
    return support::hex_u64(support::double_bits(v));
  };
  std::string s = kind;
  for (const std::string& field :
       {tech_name, golden, bits(pkg.inductance), bits(pkg.capacitance),
        std::to_string(n), bits(tr), std::string(1, with_c ? 'c' : '-'),
        std::to_string(items), std::to_string(seed),
        "bench-r" + std::to_string(circuit::kTestbenchRevision)})
    (s += '|') += field;
  return support::fnv1a(s);
}

/// The --journal / --resume plumbing shared by mc --sim and the sweeps:
/// loads + validates a resume journal, and opens the checkpoint journal
/// (defaulting to the resume path, so an interrupted resume keeps
/// checkpointing into the same file).
struct JournalSetup {
  std::optional<support::BatchJournal> journal;
  std::map<std::size_t, support::PointRecord> resume_items;
  bool resuming = false;
  std::string path;  ///< checkpoint path ("" = no journal)
};

// Out-param because BatchJournal is pinned in place (it owns a mutex).
void setup_journal(const Args& args, const std::string& kind,
                   std::uint64_t config_hash, std::size_t total,
                   JournalSetup& out, std::ostream& os) {
  out.path = args.get_or("journal", "");
  const std::string resume = args.get_or("resume", "");
  if (!resume.empty()) {
    const support::BatchJournal::Loaded loaded =
        support::BatchJournal::load(resume);
    support::BatchJournal::validate_against(loaded, kind, config_hash, total,
                                            resume);
    // A torn trailing record (power loss mid-checkpoint) is discarded, not
    // fatal; tell the user which item will re-run.
    for (const std::string& warning : loaded.warnings)
      os << "warning: " << warning << "\n";
    out.resume_items = loaded.items;
    out.resuming = true;
    if (out.path.empty()) out.path = resume;
  }
  if (!out.path.empty())
    out.journal.emplace(out.path, kind, config_hash, total);
}

/// Publish the CSV `write` renders to `path` (if one was given) atomically,
/// at full double precision: 17 significant digits round-trip every double
/// exactly, so "clean run" and "interrupt + resume" artifacts compare
/// byte-for-byte.
template <class Write>
void write_artifact(const std::string& path, Write&& write) {
  if (path.empty()) return;
  std::ostringstream ss;
  ss.precision(17);
  write(ss);
  support::write_file_atomic(path, ss.str());
}

}  // namespace

const char* usage() {
  return R"(ssnkit — simultaneous switching noise estimation (Ding & Mazumder, DATE 2002)

usage: ssnkit <command> [options]

commands:
  calibrate   fit the ASDM (K, lambda, V_x) to a process' golden device
  estimate    closed-form max SSN for a switching event (+ --verify to simulate)
  sweep-n     max SSN vs driver count (CSV on stdout)
  sweep-c     max SSN vs pad capacitance (CSV on stdout)
  design      ground pads / max drivers / slope budget for a noise budget
  mc          Monte Carlo corner distribution of the max SSN
  ac          ground-path impedance sweep |Z(f)| (CSV on stdout)
  simulate    run a SPICE-flavoured netlist transient (.tran required)
  serve       long-lived analysis daemon: newline-delimited JSON requests
              on a Unix socket (--socket PATH) or stdin (docs/SERVING.md)

common options:
  --tech 180nm|250nm|350nm     process (default 180nm)
  --golden alpha|bsim          golden device family (default alpha)
  --package pga|qfp|wire_bond|flip_chip   (default pga)
  --pads K                     parallel ground pads (default 1)
  --l 5n / --c 1p              override package L / C
  --n 8                        simultaneously switching drivers
  --tr 0.1n                    input rise time
  --no-c                       drop the pad capacitance (Section 3 model)
  --threads T                  (sweep-n, sweep-c, mc) worker threads for the
                               batch; 1 = serial (default), 0 = auto.
                               Results are identical for any value
  --extended                   also report the post-ramp (true) peak
  --sim                        (mc) simulator-backed samples with the
                               recovery ladder instead of the closed forms

every simulated result carries a trust verdict (verified / refined /
unverified / degraded): the solve residual is re-checked, physics
invariants (passivity, Table 1 peak consistency) are enforced, and the
closed forms are cross-checked against the simulator at the paper's 3 %
bar. mc results additionally report the 95 % confidence interval on the
mean. See docs/ROBUSTNESS.md.

job lifecycle (sweep-n, sweep-c, mc, simulate):
  --deadline S | --max-wall S  stop cooperatively after S seconds of wall
                               clock; partial results are kept and flushed
  --max-samples K              (mc --sim, sweeps) start at most K new items
                               (resumed items are free)
  --journal FILE               (mc --sim, sweeps) checkpoint each finished
                               item to FILE (atomic rewrite, crash-safe)
  --resume FILE                restore finished items from FILE instead of
                               re-running them; the final result is
                               bit-identical to an uninterrupted run.
                               Keeps checkpointing into FILE unless
                               --journal names a different file
  --out FILE                   write the result CSV to FILE atomically at
                               full precision (clean vs resumed runs are
                               byte-identical)
  SIGINT/SIGTERM               first signal drains the batch gracefully
                               (journal + partial CSV flushed); second
                               signal hard-kills

serve options:
  --socket PATH                listen on a Unix socket (default: stdin pipe)
  --queue N                    admission bound; beyond it requests are shed
                               with SSN-E064 + retry_after_ms (default 64)
  --cache N                    result-cache entries, 0 disables (default 4096)
  --cache-file FILE            crash-safe cache spill; a restarted daemon
                               warms from it
  --request-deadline S         default per-request budget, 0 to 3600 s
                               (0 = none)
  --drain S                    drain budget on SIGTERM before in-flight
                               requests are cancelled with SSN-E066
                               (default 5); clean drain exits 0
  --isolate MODE               thread (default) runs requests in-process;
                               process runs each on a supervised sandboxed
                               worker: crashes/hangs/OOMs fail only their
                               own request (SSN-E068/E069), repeat-offender
                               requests are quarantined (SSN-E070)
  --workers K                  process mode: worker processes (default:
                               the resolved --threads count)
  --worker-mem MB              process mode: RLIMIT_AS per worker, 0 = none
                               (default 1024)
  --worker-cpu S               process mode: RLIMIT_CPU per worker, 0 = none
  --grace S                    process mode: wall-clock slack past a
                               request's deadline before the watchdog
                               SIGKILLs its worker (default 0.5)
  --quarantine N               process mode: worker deaths one request key
                               may cause before it is refused (default 2)
  --quarantine-file FILE       process mode: journal of quarantined request
                               lines (replayable for offline repro)

exit codes:
  0  success        1  error          2  usage
  75 interrupted (deadline, signal, or item budget; partial results were
     written — re-run with --resume to finish)
)";
}

int cmd_calibrate(const Args& args, std::ostream& os) {
  const auto tech = tech_from(args);
  const auto cal = analysis::calibrate(tech, golden_from(args));
  io::TextTable t({"parameter", "value"});
  t.add_row({std::string("technology"), tech.name});
  t.add_row({std::string("K [A/V]"), io::si_format(cal.asdm.params.k, 5)});
  t.add_row({std::string("lambda"), io::si_format(cal.asdm.params.lambda, 5)});
  t.add_row({std::string("V_x [V]"), io::si_format(cal.asdm.params.vx, 5)});
  t.add_row({std::string("fit max error [% of Imax]"),
             io::si_format(100.0 * cal.asdm.max_rel_error, 3)});
  t.add_row({std::string("alpha-power B [A/V^a]"),
             io::si_format(cal.baseline_b(), 5)});
  t.add_row({std::string("alpha-power V_T [V]"),
             io::si_format(cal.alpha.params.vt0, 4)});
  t.add_row({std::string("alpha-power alpha"),
             io::si_format(cal.alpha.params.alpha, 4)});
  os << t.to_string();
  warn_unused(args, os);
  return 0;
}

int cmd_estimate(const Args& args, std::ostream& os) {
  analysis::Query q = query_from(args, "estimate");
  q.n_drivers = args.get_int("n", q.n_drivers);
  q.sim = args.flag("verify");
  const analysis::QueryResult r =
      analysis::run_query(q, analysis::calibrate_named(q.tech, q.golden));
  const core::SsnScenario& scenario = r.scenario;

  io::TextTable t({"quantity", "value"});
  t.add_row({std::string("drivers (N)"), std::to_string(q.n_drivers)});
  t.add_row({std::string("L / C"),
             io::si_format(r.package.inductance) + "H / " +
                 (r.with_c ? io::si_format(r.package.capacitance) + "F"
                           : std::string("ignored"))});
  t.add_row({std::string("slope S"), io::si_format(scenario.slope) + "V/s"});
  t.add_row({std::string("beta = N*L*S"), io::si_format(scenario.beta(), 4)});
  if (r.with_c) {
    const core::LcModel model(scenario);
    t.add_row({std::string("zeta"), io::si_format(model.zeta(), 4)});
    t.add_row({std::string("C_crit"),
               io::si_format(scenario.critical_capacitance()) + "F"});
    t.add_row({std::string("Table 1 case"), core::to_string(model.max_case())});
    t.add_row({std::string("max SSN (LC model)"),
               io::si_format(r.v_model, 5) + "V"});
    if (args.flag("extended")) {
      const auto ext = model.v_max_extended();
      t.add_row({std::string("max SSN incl. post-ramp"),
                 io::si_format(ext.v, 5) + "V" +
                     (ext.after_ramp ? " (peak after t_r)" : "")});
    }
  } else {
    t.add_row({std::string("max SSN (Eqn 7)"),
               io::si_format(r.v_model, 5) + "V"});
  }
  const auto sens = r.with_c ? analysis::lc_sensitivities(scenario)
                             : analysis::l_only_sensitivities(scenario);
  t.add_row({std::string("elasticity wrt L / S"),
             io::si_format(sens.wrt_inductance, 3) + " / " +
                 io::si_format(sens.wrt_slope, 3)});
  os << t.to_string();

  if (r.simulated)
    os << "simulated max SSN: " << io::si_format(r.simulated->v_max, 5)
       << "V (" << r.simulated->stats.accepted_steps << " steps)\n";
  os << "trust: " << r.trust.summary() << "\n";
  if (r.fidelity != sim::Fidelity::kFullDevice)
    os << "fidelity: " << sim::to_string(r.fidelity) << "\n";
  warn_unused(args, os);
  return 0;
}

int cmd_sweep_n(const Args& args, std::ostream& os) {
  analysis::Query q = query_from(args, "sweep-n");
  q.max_n = args.get_int("max-n", q.max_n);
  const analysis::Calibration cal = analysis::calibrate_named(q.tech, q.golden);
  const process::Package pkg = analysis::package_for(q);
  const std::size_t total = analysis::driver_count_ladder(q.max_n).size();

  Lifecycle life(args);
  analysis::QueryExec exec;
  exec.threads = args.get_int("threads", 1);
  exec.run_ctx = &life.ctx;
  const std::uint64_t hash = batch_config_hash(
      "sweep-n", cal.tech.name, q.golden, pkg, q.max_n, q.rise_time,
      analysis::includes_c(q, pkg), static_cast<long long>(total), 0);
  JournalSetup js;
  setup_journal(args, "sweep-n", hash, total, js, os);
  if (js.journal) exec.journal = &*js.journal;
  if (js.resuming) exec.resume = &js.resume_items;

  const analysis::QueryResult r = analysis::run_query(q, cal, exec);
  const analysis::DriverSweepResult& result = r.sweep;
  // stdout gets the table; --out adds the fidelity column.
  const auto csv = [&](std::ostream& o, bool fidelity) {
    o << "n,sim,this_work,vemuru,song,senthinathan"
      << (fidelity ? ",fidelity\n" : "\n");
    for (const auto& row : result.rows) {
      o << row.n << ',' << row.sim << ',' << row.this_work << ','
        << row.vemuru << ',' << row.song << ',' << row.senthinathan;
      if (fidelity) o << ',' << int(row.fidelity);
      o << '\n';
    }
  };
  csv(os, false);
  print_batch_health(os, result.summary, result.trust);
  write_artifact(args.get_or("out", ""),
                 [&](std::ostream& o) { csv(o, true); });
  warn_unused(args, os);
  return finish_batch(os, r.stop, total - result.summary.not_run, total,
                      "points", js.path);
}

int cmd_sweep_c(const Args& args, std::ostream& os) {
  analysis::CapacitanceSweepConfig config;
  config.tech = tech_from(args);
  config.package = package_from(args);
  config.golden = golden_from(args);
  config.n_drivers = args.get_int("n", 8);
  config.input_rise_time = args.get_double("tr", 0.1e-9);
  config.threads = args.get_int("threads", 1);
  config.capacitances = analysis::default_capacitance_sweep();

  Lifecycle life(args);
  config.run_ctx = &life.ctx;
  const std::uint64_t hash = batch_config_hash(
      "sweep-c", config.tech.name, args.get_or("golden", "alpha"),
      config.package, config.n_drivers, config.input_rise_time, true,
      static_cast<long long>(config.capacitances.size()), 0);
  JournalSetup js;
  setup_journal(args, "sweep-c", hash, config.capacitances.size(), js, os);
  if (js.journal) config.journal = &*js.journal;
  if (js.resuming) config.resume = &js.resume_items;

  const auto result = analysis::run_capacitance_sweep(config);
  const auto csv = [&](std::ostream& o, bool fidelity) {
    o << "c,zeta,sim,lc_model,l_only,err_lc,err_l_only"
      << (fidelity ? ",fidelity\n" : "\n");
    for (const auto& r : result.rows) {
      o << r.c << ',' << r.zeta << ',' << r.sim << ',' << r.lc_model << ','
        << r.l_only << ',' << r.err_lc << ',' << r.err_l_only;
      if (fidelity) o << ',' << int(r.fidelity);
      o << '\n';
    }
  };
  csv(os, false);
  print_batch_health(os, result.summary, result.trust);
  write_artifact(args.get_or("out", ""),
                 [&](std::ostream& o) { csv(o, true); });
  warn_unused(args, os);
  return finish_batch(os, result.summary.stop,
                      config.capacitances.size() - result.summary.not_run,
                      config.capacitances.size(), "points", js.path);
}

int cmd_design(const Args& args, std::ostream& os) {
  const auto tech = tech_from(args);
  const auto pkg = package_from(args);
  const int n = args.get_int("n", 8);
  const double tr = args.get_double("tr", 0.1e-9);
  const double budget = args.get_double("budget", 0.15 * tech.vdd);

  const auto cal = analysis::calibrate(tech, golden_from(args));
  const auto scenario = analysis::make_scenario(cal, pkg, n, tr, true);

  io::TextTable t({"design query", "answer"});
  t.add_row({std::string("noise budget"), io::si_format(budget, 4) + "V"});
  t.add_row({std::string("predicted max SSN"),
             io::si_format(analysis::predict_vmax(scenario), 4) + "V"});
  try {
    t.add_row({std::string("ground pads needed"),
               std::to_string(analysis::required_ground_pads(scenario, pkg,
                                                             budget))});
  } catch (const std::runtime_error&) {
    t.add_row({std::string("ground pads needed"), std::string("> 64")});
  }
  t.add_row({std::string("max simultaneous drivers"),
             std::to_string(analysis::max_simultaneous_drivers(scenario,
                                                               budget))});
  try {
    t.add_row({std::string("max input slope"),
               io::si_format(analysis::max_input_slope(scenario, budget)) +
                   "V/s"});
  } catch (const std::runtime_error&) {
    t.add_row({std::string("max input slope"), std::string("below 1e8 V/s")});
  }
  os << t.to_string();
  warn_unused(args, os);
  return 0;
}

int cmd_mc(const Args& args, std::ostream& os) {
  analysis::Query q = query_from(args, "mc");
  q.n_drivers = args.get_int("n", q.n_drivers);
  const analysis::Calibration cal = analysis::calibrate_named(q.tech, q.golden);

  if (args.flag("sim")) {
    // Simulator-backed Monte Carlo: each sample is a full MNA transient run
    // under the recovery ladder; failures degrade instead of aborting.
    const process::Package pkg = analysis::package_for(q);
    analysis::SimMonteCarloOptions opts;
    opts.samples = args.get_int("samples", 16);
    opts.seed = unsigned(args.get_int("seed", 12345));
    opts.threads = args.get_int("threads", 1);

    Lifecycle life(args);
    opts.run_ctx = &life.ctx;
    const std::uint64_t hash = batch_config_hash(
        "mc-sim", cal.tech.name, q.golden, pkg, q.n_drivers, q.rise_time,
        q.include_c, opts.samples, opts.seed);
    JournalSetup js;
    setup_journal(args, "mc-sim", hash, std::size_t(opts.samples), js, os);
    if (js.journal) opts.journal = &*js.journal;
    if (js.resuming) opts.resume = &js.resume_items;

    const auto mc = analysis::monte_carlo_vmax_sim(
        cal, pkg, q.n_drivers, q.rise_time, q.include_c, opts);
    io::TextTable t({"statistic", "V_max [V]"});
    t.add_row({std::string("samples (surviving/total)"),
               std::to_string(mc.surviving) + "/" +
                   std::to_string(mc.samples.size())});
    t.add_row({std::string("mean"), io::si_format(mc.mean, 4)});
    t.add_row({std::string("sigma"), io::si_format(mc.stddev, 4)});
    t.add_row({std::string("min / max"),
               io::si_format(mc.min, 4) + " / " + io::si_format(mc.max, 4)});
    t.add_row({std::string("95% CI (mean +/-)"), io::si_format(mc.ci95, 4)});
    os << t.to_string();
    os << "trust: " << mc.trust.summary() << '\n';
    os << "resilience: " << mc.summary.to_string() << '\n';
    for (const auto& note : mc.summary.notes) os << "  " << note << '\n';
    if (mc.resumed > 0)
      os << "resumed " << mc.resumed << " samples from "
         << args.get_or("resume", js.path) << '\n';

    // The CSV artifact holds only per-sample *outcomes*: identical between
    // a clean run and an interrupt + resume (only completed rows appear).
    write_artifact(args.get_or("out", ""), [&](std::ostream& o) {
      o << "index,l_factor,c_factor,rise_factor,width_factor,fidelity,v_max\n";
      for (const auto& s : mc.samples)
        if (s.completed)
          o << s.index << ',' << s.l_factor << ',' << s.c_factor << ','
            << s.rise_factor << ',' << s.width_factor << ','
            << int(s.fidelity) << ',' << s.v_max << '\n';
    });
    warn_unused(args, os);
    return finish_batch(os, mc.stop, mc.completed, mc.samples.size(),
                        "samples", js.path);
  }

  q.samples = args.get_int("samples", q.samples);
  q.seed = args.get_int("seed", q.seed);
  Lifecycle life(args);
  analysis::QueryExec exec;
  exec.threads = args.get_int("threads", 1);
  exec.run_ctx = &life.ctx;
  const analysis::QueryResult r = analysis::run_query(q, cal, exec);
  const analysis::MonteCarloResult& mc = r.mc;

  io::TextTable t({"statistic", "V_max [V]"});
  t.add_row({std::string("samples"), std::to_string(mc.completed) + "/" +
                                         std::to_string(q.samples)});
  t.add_row({std::string("mean"), io::si_format(mc.mean, 4)});
  t.add_row({std::string("sigma"), io::si_format(mc.stddev, 4)});
  t.add_row({std::string("min / max"),
             io::si_format(mc.min, 4) + " / " + io::si_format(mc.max, 4)});
  t.add_row({std::string("p95"), io::si_format(mc.p95, 4)});
  t.add_row({std::string("p99"), io::si_format(mc.p99, 4)});
  t.add_row({std::string("95% CI (mean +/-)"), io::si_format(mc.ci95, 4)});
  t.add_row({std::string("damping-region flips"),
             io::si_format(100.0 * mc.region_flip_fraction, 3) + "%"});
  os << t.to_string();
  warn_unused(args, os);
  return finish_batch(os, r.stop, mc.completed, std::size_t(q.samples),
                      "samples", "");
}

int cmd_ac(const Args& args, std::ostream& os) {
  // Ground-path impedance seen by the drivers, with the bank linearized
  // mid-switching (see bench_ac_impedance for the full study).
  const auto tech = tech_from(args);
  const auto pkg = package_from(args);
  const int n = args.get_int("n", 8);
  if (n < 1) throw std::invalid_argument("ac: --n must be >= 1");

  circuit::Circuit ckt;
  const circuit::NodeId n_vdd = ckt.node("vdd");
  const circuit::NodeId n_vssi = ckt.node("vssi");
  ckt.add_vsource("Vdd", n_vdd, circuit::kGround, waveform::Dc{tech.vdd});
  ckt.add_inductor("Lgnd", n_vssi, circuit::kGround, pkg.inductance);
  if (pkg.capacitance > 0.0)
    ckt.add_capacitor("Cpad", n_vssi, circuit::kGround, pkg.capacitance);
  std::shared_ptr<const devices::MosfetModel> nmos(
      tech.make_golden(golden_from(args)));
  for (int i = 0; i < n; ++i) {
    const std::string idx = std::to_string(i);
    const circuit::NodeId in = ckt.node("in" + idx);
    const circuit::NodeId out = ckt.node("out" + idx);
    ckt.add_vsource("Vin" + idx, in, circuit::kGround,
                    waveform::Dc{0.5 * tech.vdd + 0.35});
    ckt.add_mosfet("Mn" + idx, out, in, n_vssi, circuit::kGround, nmos);
    ckt.add_resistor("Rload" + idx, n_vdd, out, 200.0);
    ckt.add_capacitor("Cl" + idx, out, circuit::kGround, tech.load_cap);
  }
  auto& probe = ckt.add_isource("Iprobe", circuit::kGround, n_vssi,
                                waveform::Dc{0.0});
  probe.set_ac(1.0);

  sim::AcOptions opts;
  opts.f_start = args.get_double("fstart", 1e8);
  opts.f_stop = args.get_double("fstop", 1e11);
  opts.points_per_decade = args.get_int("ppd", 40);
  const auto res = sim::run_ac(ckt, opts);
  const auto mag = res.magnitude("vssi");
  const auto phase = res.phase_deg("vssi");
  os << "freq,z_mag,z_phase_deg\n";
  for (std::size_t i = 0; i < res.point_count(); ++i)
    os << res.frequencies()[i] << ',' << mag[i] << ',' << phase[i] << '\n';
  warn_unused(args, os);
  return 0;
}

int cmd_simulate(const Args& args, std::ostream& os) {
  if (args.positional().empty())
    throw std::invalid_argument("simulate: need a netlist file");
  const std::string& path = args.positional().front();
  circuit::ParseOptions popts;
  popts.filename = path;
  std::ifstream in(path, std::ios::ate);
  if (!in)
    throw support::IoError(support::IoError::Kind::kOpenFailed, path, "cannot open");
  // Reject oversized files before slurping them into memory; the parser
  // would refuse anyway, but only after the allocation.
  const auto size = in.tellg();
  if (size >= 0 && std::size_t(size) > popts.limits.max_input_bytes) {
    io::DiagnosticSink sink;
    sink.error(support::SrcLoc{path, 0, 0}, "SSN-E030",
               "netlist file is " + std::to_string(size) + " bytes, over the " +
                   std::to_string(popts.limits.max_input_bytes) +
                   " byte limit");
    throw io::ParseError(sink);
  }
  in.seekg(0);
  std::ostringstream ss;
  ss << in.rdbuf();
  auto parse_result = circuit::parse_netlist_ex(ss.str(), popts);
  for (const auto& d : parse_result.diagnostics.diagnostics())
    if (d.severity == io::Severity::kWarning) os << d.format() << "\n";
  if (!parse_result.ok) throw io::ParseError(parse_result.diagnostics);
  auto& parsed = parse_result.netlist;
  if (!parsed.tran)
    throw std::invalid_argument("simulate: netlist has no .tran directive");

  sim::TransientOptions topts;
  topts.t_stop = parsed.tran->tstop;
  topts.dt_initial = parsed.tran->tstep;

  // Lifecycle: Ctrl-C / --deadline stop the transient at an accepted-step
  // boundary with the partial waveform intact; any other solver failure
  // still throws (typed) exactly as before.
  Lifecycle life(args);
  topts.run_ctx = &life.ctx;
  const auto run = sim::run_transient_ex(parsed.circuit, topts);
  if (run.error && !support::is_stop_kind(run.error->kind()))
    throw *run.error;
  const auto& result = run.result;

  // Every signal as CSV: on stdout without --probe, and to --out.
  const auto csv = [&](std::ostream& o) {
    o << "time";
    for (const auto& name : result.signal_names()) o << ',' << name;
    o << '\n';
    std::vector<waveform::Waveform> waves;
    for (const auto& name : result.signal_names())
      waves.push_back(result.waveform(name));
    for (std::size_t i = 0; i < result.point_count(); ++i) {
      o << result.times()[i];
      for (const auto& w : waves) o << ',' << w.value(i);
      o << '\n';
    }
  };
  const std::string probe = args.get_or("probe", "");
  if (!probe.empty() && result.point_count() == 0) {
    // A run stopped before the first accepted step has nothing to chart.
    os << probe << ": no points\n";
  } else if (!probe.empty()) {
    if (!result.has_signal(probe))
      throw std::invalid_argument("simulate: no signal '" + probe + "'");
    const auto wave = result.waveform(probe);
    io::ChartOptions copts;
    copts.title = "v(" + probe + ")";
    copts.y_label = probe;
    os << waveform::ascii_chart(wave, copts);
    os << probe << ": min " << wave.minimum().value << ", max "
       << wave.maximum().value << "\n";
  } else {
    csv(os);
  }
  write_artifact(args.get_or("out", ""), csv);
  warn_unused(args, os);
  if (run.error) {
    os << "interrupted (" << support::to_string(run.error->kind() ==
                                 support::SolverErrorKind::kCancelled
                             ? support::StopReason::kCancelled
                             : support::StopReason::kDeadlineExpired)
       << "): " << result.point_count() << " points written\n";
    return kExitInterrupted;
  }
  return 0;
}

int cmd_serve(const Args& args, std::ostream& os) {
  serve::ServerConfig config;
  config.threads = args.get_int("threads", 0);
  const int queue = args.get_int("queue", 64);
  if (queue < 1) throw std::invalid_argument("--queue must be >= 1");
  config.queue_capacity = std::size_t(queue);
  const int cache = args.get_int("cache", 4096);
  if (cache < 0) throw std::invalid_argument("--cache must be >= 0");
  config.cache_capacity = std::size_t(cache);
  config.cache_file = args.get_or("cache-file", "");
  // Forwarded on the worker's request line: keep it in the wire's range.
  config.default_deadline_s = args.get_double("request-deadline", 0.0);
  if (!(config.default_deadline_s >= 0.0 &&
        config.default_deadline_s <= 3600.0))
    throw std::invalid_argument("--request-deadline must be in [0, 3600] s");
  config.drain_deadline_s = args.get_double("drain", 5.0);
  const std::string isolate = args.get_or("isolate", "thread");
  if (isolate == "process") {
    config.isolate = serve::IsolateMode::kProcess;
  } else if (isolate != "thread") {
    throw std::invalid_argument("--isolate must be 'thread' or 'process'");
  }
  config.supervisor.workers = args.get_int("workers", 0);
  const int worker_mem = args.get_int("worker-mem", 1024);
  if (worker_mem < 0) throw std::invalid_argument("--worker-mem must be >= 0");
  config.supervisor.mem_limit_mb = std::size_t(worker_mem);
  config.supervisor.cpu_limit_s = args.get_double("worker-cpu", 0.0);
  config.supervisor.grace_s = args.get_double("grace", 0.5);
  const int quarantine = args.get_int("quarantine", 2);
  if (quarantine < 1) throw std::invalid_argument("--quarantine must be >= 1");
  config.supervisor.quarantine_after = quarantine;
  config.supervisor.quarantine_file = args.get_or("quarantine-file", "");
  const std::string socket_path = args.get_or("socket", "");
  warn_unused(args, os);

  // Fault-injection builds only: a soak harness cannot call arm() inside
  // the daemon process, so it configures the fault plan through the
  // environment. Release builds compile the hooks to `false` and ignore
  // the variable entirely.
  if (support::kFaultInjectionEnabled) {
    const char* plan = std::getenv("SSNKIT_FAULT_PLAN");
    if (plan != nullptr && *plan != '\0') {
      const std::size_t armed = support::arm_from_plan_string(plan);
      os << "{\"event\":\"fault-plan\",\"armed\":" << armed << "}\n";
      os.flush();
    }
  }

  // Same lifecycle wiring as the batch commands: the first SIGINT/SIGTERM
  // starts the graceful drain, the second hard-exits. --deadline bounds the
  // daemon's own lifetime (handy for smoke tests and supervised restarts).
  Lifecycle life(args);

  serve::Server server(config);
  if (socket_path.empty())
    return server.serve_stream(std::cin, os, &life.ctx);
  // Socket mode: responses go to the clients' connections; the daemon's own
  // stream carries the warm-up warnings, supervisor events and stats line.
  serve::SocketOptions sopts;
  sopts.path = socket_path;
  return server.run(os, [&](const serve::ResponseSink& out) {
    std::string err;
    if (serve::serve_unix_socket(server, sopts, &life.ctx, err) == 0) return 0;
    out("error: " + err);
    return 1;
  });
}

int run_cli(const std::vector<std::string>& argv, std::ostream& os,
            std::ostream& err) {
  if (argv.empty()) {
    err << usage();
    return 2;
  }
  const std::string command = argv.front();
  const std::vector<std::string> rest(argv.begin() + 1, argv.end());
  try {
    const Args args = Args::parse(rest, {"no-c", "verify", "extended", "sim"});
    if (command == "calibrate") return cmd_calibrate(args, os);
    if (command == "estimate") return cmd_estimate(args, os);
    if (command == "sweep-n") return cmd_sweep_n(args, os);
    if (command == "sweep-c") return cmd_sweep_c(args, os);
    if (command == "design") return cmd_design(args, os);
    if (command == "mc") return cmd_mc(args, os);
    if (command == "ac") return cmd_ac(args, os);
    if (command == "simulate") return cmd_simulate(args, os);
    if (command == "serve") return cmd_serve(args, os);
    if (command == "help" || command == "--help") {
      os << usage();
      return 0;
    }
    err << "unknown command '" << command << "'\n" << usage();
    return 2;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace ssnkit::cli
