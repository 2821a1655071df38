// ssnbench: the repository's benchmark runner.
//
//   ssnbench --workload W --seed N --seconds S --trace 0|1 [--work-dir DIR]
//            [--trace-out FILE]
//
// W is serve_closed_form, serve_closed_form_isolated, cli_batch, or all.
// With --trace 0 the run measures the end-to-end metrics, CPU time per unit
// of work (wall-clock figures go to the report only; README.md says why);
// with --trace 1 it runs the traced layer profile instead (layers.hpp).
// Either way every answer is checked, a human-readable report goes to
// stderr, and the last line of stdout is one JSON object:
//
//   {"correct":true,"attempted":N,"failed":F,"metrics":{"name":{"value":V,
//    "unit":"U"},...}}
//
// Exit codes: 0 ok; 1 an answer was wrong; 2 usage. A traced run whose
// open-loop generator fell behind its schedule is marked invalid in the
// report.
#include "cli_batch.hpp"
#include "layers.hpp"
#include "serve_load.hpp"
#include "speed.hpp"
#include "stats.hpp"
#include "trace.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

using namespace ssnbench;

namespace {

/// Open-loop arrival rates of the traced run's live phase, about a fifth of
/// each mode's closed-loop capacity on a quiet 4-core virtual machine with
/// 2 pool threads.
constexpr double kRateThread = 6000.0;
constexpr double kRateProcess = 3500.0;
/// Upper bounds on closed-loop request rates, for pre-generating streams.
constexpr double kCapThread = 40000.0;
constexpr double kCapProcess = 25000.0;
/// Serve workloads: rounds of (latency, load, mc, sim) phases, and the
/// window lengths of the medians over windows.
constexpr int kRounds = 6;
constexpr double kLatencyWindowS = 0.25;
constexpr double kLoadWindowS = 0.01;
constexpr int kServeSetupReps = 41;
/// A traced run whose open-loop generator submitted its p99 request later
/// than this is invalid: the host stalled the client, so the schedule, not
/// the server, set the live latencies the layer split is made from (the
/// result line is still printed).
constexpr double kMaxLateUs = 500.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir = ".";
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ssnbench: %s\n"
               "usage: ssnbench --workload serve_closed_form|"
               "serve_closed_form_isolated|cli_batch|all --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("--seed expects an integer");
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0)) usage("--seconds expects a positive number");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace expects 0 or 1");
      o.trace = v == "1";
    } else if (a == "--work-dir") {
      o.work_dir = v;
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

int nproc() { return std::max(1, int(std::thread::hardware_concurrency())); }
int pool_threads() { return std::max(1, nproc() - 2); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

struct Outcome {
  std::vector<Metric> metrics;
  std::vector<Metric> report_only;  ///< in the report, not in the result line
  CheckTally tally;
  bool valid = true;
};

/// Median over windows of a per-window statistic, with a report note.
struct Windowed {
  std::vector<double> values;
  std::size_t samples = 0;
  double value() const { return summarize(values).median; }
  std::string note(const char* what) const {
    return "median of " + std::to_string(values.size()) + " windows of " +
           what + " (" + std::to_string(samples) + " samples)";
  }
};

std::string ratio_note(double count, const char* what, double cpu_s) {
  return std::to_string(std::llround(count)) + " " + what + " in " +
         std::to_string(cpu_s) + " scaled CPU s";
}

Metric speed_line(const HostSpeed& speed) {
  const Summary ref = summarize(speed.samples());
  return {"host_speed_factor", "ratio", speed.factor(),
          "CPU times are multiplied by it; reference kernel " +
              describe(ref, "CPU s")};
}

Outcome serve_workload(const Options& o, bool process,
                       const Calibrations& cals) {
  ServeLoadConfig cfg;
  cfg.process = process;
  cfg.pool_threads = pool_threads();
  cfg.setup_reps = kServeSetupReps;
  cfg.seed = o.seed;
  const double cap = process ? kCapProcess : kCapThread;
  const int latency_window = cfg.pool_threads;
  const int load_window = 32 * cfg.pool_threads;
  HostSpeed speed;
  speed.sample();
  ServeLoad s(cfg, cals);
  // Rounds interleave the phases, so a burst of host noise lands in a few
  // windows of each phase.
  const double round = o.seconds / kRounds;
  const double t_latency = 0.40 * round, t_load = 0.30 * round,
               t_mc = 0.10 * round, t_sim = 0.20 * round;
  const double mc_cap = 5000.0 * t_mc, sim_cap = 1000.0 * t_sim;
  s.reserve(std::size_t(kRounds * (cap * (t_latency + t_load) + mc_cap + sim_cap)));
  std::vector<ClosedLoop> latencies, loads, mcs, sims;
  for (int r = 0; r < kRounds; ++r) {
    speed.sample();
    latencies.push_back(s.closed_loop(t_latency, latency_window, std::size_t(cap * t_latency)));
    loads.push_back(s.closed_loop(t_load, load_window, std::size_t(cap * t_load)));
    mcs.push_back(s.mc_loop(t_mc, cfg.pool_threads, std::size_t(mc_cap)));
    sims.push_back(s.sim_loop(t_sim, cfg.pool_threads, std::size_t(sim_cap)));
  }
  speed.sample();

  // Peak RSS before checking: the checker's own tables grow with the
  // number of answers.
  const double rss_mb = peak_rss_mb();
  Outcome out;
  out.tally = s.check(40);
  Windowed p50, p99;
  for (const ClosedLoop& phase : latencies) {
    // Windows by submission time. A failed answer misses every latency
    // limit: it counts as answered when the phase's last answer arrived.
    const std::size_t windows = std::max<std::size_t>(1, std::size_t(std::lround(t_latency / kLatencyWindowS)));
    const double span = double(phase.stop_ns - phase.start_ns) / double(windows);
    std::int64_t last = phase.stop_ns;
    for (std::size_t i = phase.first; i < phase.first + phase.count; ++i)
      last = std::max(last, s.answers()[i].done_ns);
    std::vector<std::vector<double>> lat_us(windows);
    for (std::size_t i = phase.first; i < phase.first + phase.count; ++i) {
      const std::int64_t sent = s.sent_ns()[i];
      if (sent > phase.stop_ns) continue;
      const Answer& a = s.answers()[i];
      lat_us[std::min(windows - 1, std::size_t(double(sent - phase.start_ns) / span))]
          .push_back(double((a.ok() ? a.done_ns : last) - sent) * 1e-3);
    }
    for (const std::vector<double>& w : lat_us) {
      const Summary lat = summarize(w);
      p50.values.push_back(lat.median);
      p99.values.push_back(lat.tail);
      p50.samples += lat.count;
      p99.samples += lat.count;
    }
  }
  // CPU cost: ratios of totals over the rounds.
  const auto ok_in = [&](const ClosedLoop& phase, bool samples) {
    double n = 0.0;
    for (std::size_t i = phase.first; i < phase.first + phase.count; ++i)
      if (s.answers()[i].ok()) n += samples ? double(s.items()[i].samples) : 1.0;
    return n;
  };
  const auto cpu_s = [](const std::vector<ClosedLoop>& phases) {
    double ns = 0.0;
    for (const ClosedLoop& phase : phases) ns += double(phase.cpu_ns);
    return ns * 1e-9;
  };
  double load_ok = 0.0, mc_samples = 0.0, sim_points = 0.0;
  for (const ClosedLoop& phase : loads) load_ok += ok_in(phase, false);
  for (const ClosedLoop& phase : mcs) mc_samples += ok_in(phase, true);
  for (const ClosedLoop& phase : sims) sim_points += ok_in(phase, false);
  // CPU times scaled to the nominal host speed (speed.hpp).
  const double f = speed.factor();
  const double load_cpu = cpu_s(loads) * f, mc_cpu = cpu_s(mcs) * f,
               sim_cpu = cpu_s(sims) * f;

  // Wall-clock figures, in the report only (see README.md, "Steadiness").
  Windowed throughput, mc_p50;
  for (const ClosedLoop& phase : loads) {
    const std::size_t windows = std::max<std::size_t>(1, std::size_t(std::lround(t_load / kLoadWindowS)));
    const double span = double(phase.stop_ns - phase.start_ns) / double(windows);
    std::vector<double> ok(windows, 0.0);
    for (std::size_t i = phase.first; i < phase.first + phase.count; ++i) {
      const Answer& a = s.answers()[i];
      if (!a.ok() || a.done_ns > phase.stop_ns) continue;
      ok[std::min(windows - 1, std::size_t(double(a.done_ns - phase.start_ns) / span))] += 1.0;
    }
    for (double n : ok) throughput.values.push_back(n / (span * 1e-9));
    throughput.samples += phase.ok_in_window;
  }
  // Wall-clock rates: work answered before each phase's stop / its length.
  double mc_wall_samples = 0.0, mc_wall_s = 0.0, sim_wall_points = 0.0,
         sim_wall_s = 0.0;
  for (const ClosedLoop& phase : mcs) {
    std::vector<double> us;
    for (std::size_t i = phase.first; i < phase.first + phase.count; ++i) {
      const Answer& a = s.answers()[i];
      if (!a.ok()) continue;
      us.push_back(double(a.done_ns - s.sent_ns()[i]) * 1e-3);
      if (a.done_ns <= phase.stop_ns) mc_wall_samples += s.items()[i].samples;
    }
    mc_p50.values.push_back(summarize(us).median);
    mc_p50.samples += us.size();
    mc_wall_s += double(phase.stop_ns - phase.start_ns) * 1e-9;
  }
  for (const ClosedLoop& phase : sims) {
    sim_wall_points += double(phase.ok_in_window);
    sim_wall_s += double(phase.stop_ns - phase.start_ns) * 1e-9;
  }

  std::vector<double> setup_s = s.setup_seconds();
  for (double& t : setup_s) t *= f;
  const Summary setup = summarize(setup_s);
  out.metrics = {
      {"setup_s", "s", setup.median, describe(setup, "CPU s")},
      {"cpu_us_per_answer", "us", load_cpu * 1e6 / load_ok,
       ratio_note(load_ok, "answers", load_cpu) + ", window " +
           std::to_string(load_window)},
      {"mc_samples_per_cpu_s", "1/s", mc_samples / mc_cpu,
       ratio_note(mc_samples, "mc samples", mc_cpu)},
      {"sim_points_per_cpu_s", "1/s", sim_points / sim_cpu,
       ratio_note(sim_points, "sim:true estimates", sim_cpu)},
      {"ok_frac", "ratio", double(out.tally.correct) / double(out.tally.attempted),
       std::to_string(out.tally.correct) + "/" + std::to_string(out.tally.attempted)},
      {"peak_rss_mb", "MB", rss_mb, "this process, before the answer check"},
  };
  out.report_only = {
      speed_line(speed),
      {"p50_us", "us", p50.value(),
       p50.note("p50") + ", window " + std::to_string(latency_window)},
      {"throughput_rps", "1/s", throughput.value(),
       throughput.note("closed-loop ok answers/s") + ", window " +
           std::to_string(load_window)},
      {"p99_us", "us", p99.value(),
       p99.note("tail") + ", window " + std::to_string(latency_window)},
      {"mc_p50_us", "us", mc_p50.value(), mc_p50.note("mc p50")},
      {"mc_samples_per_s", "1/s", mc_wall_samples / mc_wall_s, "mc phases"},
      {"sim_points_per_s", "1/s", sim_wall_points / sim_wall_s, "sim phases"},
  };
  return out;
}

Outcome cli_workload(const Options& o) {
  // One set-up before every cycle: the host's speed changes within a
  // second, so set-ups spread over the run give a steadier median than a
  // burst of them at the start. Set-up time is kept out of `elapsed`.
  std::vector<double> setup;
  std::vector<CliRun> runs;
  HostSpeed speed;
  const std::int64_t stop = now_ns() + std::int64_t(o.seconds * 1e9);
  std::int64_t busy_ns = 0;
  for (std::size_t cycle = 0; now_ns() < stop; ++cycle) {
    speed.sample(1);
    setup.push_back(cli_setup_once());
    const std::int64_t t0 = now_ns();
    for (const CliJob& job : cli_script(o.seed, cycle, 1))
      runs.push_back(run_job(job, nproc()));
    busy_ns += now_ns() - t0;
  }
  const double elapsed = double(busy_ns) * 1e-9;

  const double rss_mb = peak_rss_mb();
  Outcome out;
  out.tally = check_cli_runs(runs, nproc(), o.seed, 2, o.work_dir);
  // CPU times scaled to the nominal host speed (speed.hpp).
  const double f = speed.factor();
  for (double& t : setup) t *= f;
  std::vector<double> lat_us, mc_us;
  double ok = 0.0, cpu = 0.0, mc_samples = 0.0, mc_cpu = 0.0, points = 0.0,
         point_cpu = 0.0, mc_wall_s = 0.0, point_wall_s = 0.0;
  for (const CliRun& r : runs) {
    lat_us.push_back(r.rc == 0 ? r.us() : elapsed * 1e6);
    cpu += double(r.cpu_ns) * 1e-9 * f;
    if (r.rc != 0) continue;
    ok += 1.0;
    if (r.job.kind == CliJob::Kind::kMc) {
      mc_us.push_back(r.us());
      mc_samples += r.job.samples;
      mc_cpu += double(r.cpu_ns) * 1e-9 * f;
      mc_wall_s += r.us() * 1e-6;
    } else {
      points += r.job.points();
      point_cpu += double(r.cpu_ns) * 1e-9 * f;
      point_wall_s += r.us() * 1e-6;
    }
  }
  const Summary lat = summarize(lat_us), mc = summarize(mc_us),
                st = summarize(setup);
  out.metrics = {
      {"setup_s", "s", st.median, describe(st, "CPU s")},
      {"cpu_us_per_answer", "us", cpu * 1e6 / ok,
       ratio_note(ok, "ok jobs", cpu) + " (" + std::to_string(nproc()) + " threads)"},
      {"mc_samples_per_cpu_s", "1/s", mc_samples / mc_cpu,
       ratio_note(mc_samples, "samples of closed-form mc jobs", mc_cpu)},
      {"sim_points_per_cpu_s", "1/s", points / point_cpu,
       ratio_note(points, "points (sweep rows, mc --sim samples, estimate "
                          "--verify)", point_cpu)},
      {"ok_frac", "ratio", double(out.tally.correct) / double(out.tally.attempted),
       std::to_string(out.tally.correct) + "/" + std::to_string(out.tally.attempted)},
      {"peak_rss_mb", "MB", rss_mb, "this process, before the answer check"},
  };
  out.report_only = {
      speed_line(speed),
      {"p50_us", "us", lat.median, describe(lat, "us") + " per job"},
      {"throughput_rps", "1/s", ok / elapsed,
       std::to_string(runs.size()) + " jobs in " + std::to_string(elapsed) + " s"},
      {"p99_us", "us", lat.tail, describe(lat, "us") + " per job"},
      {"mc_p50_us", "us", mc.median, describe(mc, "us") + " per mc job"},
      {"mc_samples_per_s", "1/s", mc_samples / mc_wall_s, "mc job time"},
      {"sim_points_per_s", "1/s", points / point_wall_s, "point job time"},
  };
  return out;
}

Outcome traced_workload(const Options& o, const std::string& workload,
                        const Calibrations& cals) {
  LayerConfig lc;
  lc.seed = o.seed;
  lc.process = workload == "serve_closed_form_isolated";
  lc.cli_workload = workload == "cli_batch";
  lc.pool_threads = pool_threads();
  lc.nproc = nproc();
  lc.open_rate = lc.process ? kRateProcess : kRateThread;
  lc.live_seconds = std::max(0.5, 0.2 * o.seconds);
  lc.work_dir = o.work_dir;
  lc.trace_out = o.trace_out;
  LayerResult r = run_layer_profile(lc, cals);
  bool valid = true;
  for (const Metric& m : r.metrics)
    if (m.name == "gen.late_p99_us") valid = m.value <= kMaxLateUs;
  return Outcome{std::move(r.metrics), {}, r.tally, valid};
}

Outcome run_workload(const Options& o, const std::string& workload,
                     const Calibrations& cals) {
  if (o.trace) return traced_workload(o, workload, cals);
  if (workload == "cli_batch") return cli_workload(o);
  return serve_workload(o, workload == "serve_closed_form_isolated", cals);
}

void report(const std::string& workload, const Outcome& out) {
  std::fprintf(stderr, "== %s\n", workload.c_str());
  for (const Metric& m : out.metrics)
    std::fprintf(stderr, "  %-34s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                 m.unit.c_str(), m.note.c_str());
  for (const Metric& m : out.report_only)
    std::fprintf(stderr, "  (report) %-25s %14.6g %-6s %s\n", m.name.c_str(),
                 m.value, m.unit.c_str(), m.note.c_str());
  std::fprintf(stderr,
               "  answers: %llu attempted, %llu correct, %llu failed, "
               "%llu wrong, %llu recomputed by direct calls\n",
               static_cast<unsigned long long>(out.tally.attempted),
               static_cast<unsigned long long>(out.tally.correct),
               static_cast<unsigned long long>(out.tally.failed),
               static_cast<unsigned long long>(out.tally.mismatches),
               static_cast<unsigned long long>(out.tally.sampled));
  for (const std::string& e : out.tally.examples)
    std::fprintf(stderr, "  WRONG ANSWER: %s\n", e.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const std::vector<std::string> all = {"serve_closed_form",
                                        "serve_closed_form_isolated",
                                        "cli_batch"};
  std::vector<std::string> workloads;
  if (o.workload == "all")
    workloads = all;
  else if (std::find(all.begin(), all.end(), o.workload) != all.end())
    workloads = {o.workload};
  else
    usage(("unknown workload " + o.workload).c_str());

  // Sleep wake-ups within a microsecond or so, for the open-loop schedule.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const Calibrations cals;
  CheckTally tally;
  std::string metrics;
  bool valid = true;
  for (const std::string& w : workloads) {
    const Outcome out = run_workload(o, w, cals);
    report(w, out);
    tally.add(out.tally);
    valid = valid && out.valid;
    for (const Metric& m : out.metrics) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", m.value);
      if (!metrics.empty()) metrics += ',';
      metrics += '"';
      if (workloads.size() > 1) metrics += w + ".";
      metrics += m.name;
      metrics += "\":{\"value\":";
      metrics += value;
      metrics += ",\"unit\":\"";
      metrics += m.unit;
      metrics += "\"}";
    }
  }
  if (!valid)
    std::fprintf(stderr, "RUN INVALID: the traced run's open-loop generator "
                         "fell behind its schedule (p99 lateness above %.0f "
                         "us)\n",
                 kMaxLateUs);
  const bool correct = tally.mismatches == 0;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed + tally.mismatches),
              metrics.c_str());
  return correct ? 0 : 1;
}
