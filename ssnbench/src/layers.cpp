#include "layers.hpp"

#include "cli_batch.hpp"
#include "serve_load.hpp"
#include "stats.hpp"
#include "trace.hpp"

#include "analysis/measure.hpp"
#include "analysis/montecarlo.hpp"
#include "analysis/sweeps.hpp"
#include "circuit/mna.hpp"
#include "core/l_only_model.hpp"
#include "core/lc_model.hpp"
#include "numeric/sparse.hpp"
#include "serve/handlers.hpp"
#include "serve/supervisor.hpp"
#include "sim/engine.hpp"
#include "verify/physics.hpp"

#include <algorithm>
#include <map>
#include <numeric>

namespace ssnbench {

namespace an = ssnkit::analysis;
namespace sv = ssnkit::serve;

namespace {

class Metrics {
 public:
  void add(const std::string& name, const char* unit, double value,
           const std::string& note = "") {
    out_.push_back(Metric{name, unit, value, note});
  }
  /// Median of a sample set (scaled), noting the count and tail.
  void median(const std::string& name, const char* unit,
              const std::vector<double>& values, double scale = 1.0) {
    std::vector<double> scaled(values);
    for (double& v : scaled) v *= scale;
    const Summary s = summarize(scaled);
    add(name, unit, s.median, describe(s, unit));
  }
  std::vector<Metric> take() { return std::move(out_); }

 private:
  std::vector<Metric> out_;
};

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

// --- serve replay -----------------------------------------------------------

/// The serve layers replayed over a request stream with a bench-owned
/// cache. With a tracer, every call gets a span under a per-request root.
class ServeReplay {
 public:
  ServeReplay(const std::vector<GenItem>& items, std::size_t first_id,
              Tracer* tracer)
      : items_(items),
        first_id_(first_id),
        tracer_(tracer),
        roots_(items.size(), -1),
        attributed_ns(items.size(), 0.0),
        codec_ns(items.size(), 0.0),
        worker_side_ns(items.size(), 0.0),
        fragments(items.size()),
        answers(items.size()) {}

  /// Replay request `i` of the stream.
  void run(std::size_t i);
  /// Fill the per-request sums below from the tracer's spans.
  void attribute();

 private:
  const std::vector<GenItem>& items_;
  const std::size_t first_id_;
  Tracer* const tracer_;
  sv::ResultCache cache_{4096};
  sv::CalibrationCache calibrations_;
  std::vector<int> roots_;

 public:
  /// Per replayed request (index-aligned with the items): time in the calls
  /// a thread-mode server makes, and in the worker-hop codec.
  std::vector<double> attributed_ns;
  std::vector<double> codec_ns;
  std::vector<double> worker_side_ns;  ///< calibration get + execute + render
  std::vector<std::string> fragments;
  std::vector<Answer> answers;
};

void ServeReplay::run(std::size_t i) {
  const std::uint64_t id = first_id_ + i;
  const std::string line = request_line(items_[i], id);
  const Scope root(tracer_, "serve.request", id);
  roots_[i] = root.index();
  const int p = root.index();
  sv::RequestParse parsed;
  {
    const Scope s(tracer_, "serve.parse", id, p);
    parsed = sv::parse_request(line);
  }
  const sv::ServeRequest& req = parsed.request;
  std::uint64_t key = 0;
  {
    const Scope s(tracer_, "serve.key", id, p);
    key = sv::cache_key(req);
  }
  std::optional<std::string> hit;
  {
    const Scope s(tracer_, "serve.cache.get", id, p);
    hit = cache_.get(key);
  }
  std::string fragment;
  if (hit) {
    fragment = *hit;
  } else {
    {
      const Scope s(tracer_, "serve.calibration.get", id, p);
      calibrations_.get(req.tech, req.golden);
    }
    {
      const Scope s(tracer_, req.cmd == "mc" ? "serve.execute_mc" : "serve.execute",
                    id, p);
      fragment = sv::execute_request(req, calibrations_, nullptr);
    }
    const Scope s(tracer_, "serve.cache.put", id, p);
    cache_.put(key, fragment);
  }
  std::string response;
  {
    const Scope s(tracer_, "serve.render", id, p);
    response = sv::render_ok(req.id, fragment, bool(hit), 0);
  }
  if (!hit) {
    // What --isolate process adds to a miss: the parent renders the
    // request, the worker parses it, the parent splits the response.
    const Scope s(tracer_, "serve.ipc_codec", id);
    const sv::RequestParse again = sv::parse_request(sv::render_request(req));
    sv::ResponseView view;
    sv::split_response_line(response, view);
  }
  record_answer(response, keeps_fragment(items_[i]), answers[i]);
  fragments[i] = std::move(fragment);
}

void ServeReplay::attribute() {
  for (const Span& s : tracer_->spans()) {
    if (s.request < first_id_ || s.request >= first_id_ + items_.size()) continue;
    const std::size_t i = s.request - first_id_;
    const double d = double(s.end_ns - s.start_ns);
    const std::string name = s.name;
    if (name == "serve.ipc_codec") codec_ns[i] += d;
    if (s.parent != roots_[i] || s.parent < 0) continue;
    attributed_ns[i] += d;
    if (name == "serve.calibration.get" || name == "serve.execute" ||
        name == "serve.execute_mc" || name == "serve.render")
      worker_side_ns[i] += d;
  }
}

// --- transient replay -------------------------------------------------------

struct TransientPoint {
  int n = 0;
  double transient_ms = 0.0;
  double unverified_ms = 0.0;
  double refactor_solve_us = 0.0;
  ssnkit::sim::SolverStats stats;
};

/// One design point through the transient stack.
TransientPoint replay_point(const CliJob& job, std::uint64_t id,
                            Tracer* tracer, CheckTally& tally) {
  {
    const Scope root(tracer, "transient.point", id);
    const int p = root.index();
    TransientPoint tp;
    tp.n = job.n;
    const std::int64_t c0 = now_ns();
    const JobInputs in(job);  // calibrates, as every CLI invocation does
    if (tracer) tracer->add("analysis.calibrate", id, p, c0, now_ns());
    const auto spec = in.spec(job.n);
    ssnkit::circuit::SsnBench bench;
    {
      const Scope s(tracer, "circuit.build", id, p);
      bench = ssnkit::circuit::make_ssn_testbench(spec);
    }
    ssnkit::sim::DcResult dc;
    {
      const Scope s(tracer, "sim.dc", id, p);
      dc = ssnkit::sim::dc_operating_point(bench.circuit);
    }
    {
      // The linear-algebra cost of one Newton iteration at the DC point:
      // restamp into the frozen pattern, refactorize, solve.
      const std::size_t n = std::size_t(bench.circuit.unknown_count());
      ssnkit::numeric::StampedMatrix sm;
      ssnkit::numeric::Vector b(n), x(n);
      ssnkit::circuit::StampContext ctx;
      ctx.mode = ssnkit::circuit::AnalysisMode::kDc;
      ctx.x = &dc.solution;
      ctx.sa = &sm;
      ctx.b = &b;
      sm.begin_pattern(n);
      for (const auto& el : bench.circuit.elements()) el->stamp(ctx);
      sm.finalize_pattern();
      ssnkit::numeric::SparseFactor factor;
      factor.factorize(sm);
      constexpr int kIters = 20;
      const Scope s(tracer, "numeric.refactor_solve", id, p);
      const std::int64_t r0 = now_ns();
      for (int k = 0; k < kIters; ++k) {
        sm.clear();
        b.fill(0.0);
        for (const auto& el : bench.circuit.elements()) el->stamp(ctx);
        factor.refactorize(sm);
        factor.solve(b, x);
      }
      tp.refactor_solve_us = double(now_ns() - r0) * 1e-3 / kIters;
    }
    an::SsnMeasurement verified, unverified;
    {
      const Scope s(tracer, "sim.transient", id, p);
      const std::int64_t m0 = now_ns();
      verified = an::measure_ssn(spec);
      tp.transient_ms = double(now_ns() - m0) * 1e-6;
    }
    {
      an::MeasureOptions opts;
      opts.transient.verify.enabled = false;
      const Scope s(tracer, "sim.transient_unverified", id, p);
      const std::int64_t m0 = now_ns();
      unverified = an::measure_ssn(spec, opts);
      tp.unverified_ms = double(now_ns() - m0) * 1e-6;
    }
    // Verification only observes the solve unless it refines a step, so
    // without refinements both runs must agree bit for bit.
    ++tally.attempted;
    if (verified.stats.residual_refinements == 0 &&
        !same_bits(verified.v_max, unverified.v_max))
      tally.mismatch("transient v_max changes with verification off");
    else
      ++tally.correct;
    tp.stats = verified.stats;
    return tp;
  }
}

/// Design points from the cli_batch script: the estimate jobs, up to
/// `per_bin` in each of the n bins 1-8, 9-24 and 25-48.
std::vector<CliJob> design_points(std::uint64_t seed, int per_bin) {
  std::vector<CliJob> picked;
  int count[3] = {0, 0, 0};
  for (std::size_t cycle = 0; cycle < 200; ++cycle) {
    for (const CliJob& job : cli_script(seed, cycle, 1)) {
      if (job.kind != CliJob::Kind::kEstimate) continue;
      const int bin = job.n <= 8 ? 0 : (job.n <= 24 ? 1 : 2);
      if (count[bin] < per_bin) {
        ++count[bin];
        picked.push_back(job);
      }
    }
    if (count[0] == per_bin && count[1] == per_bin && count[2] == per_bin) break;
  }
  return picked;
}

}  // namespace

LayerResult run_layer_profile(const LayerConfig& config,
                              const Calibrations& calibrations) {
  LayerResult result;
  Metrics m;
  Tracer tracer;
  tracer.reserve(1 << 20);

  // --- live serve phase (first: the server forks its workers while this
  // process is still single-threaded) -----------------------------------
  ServeLoadConfig sc;
  sc.process = config.process;
  sc.pool_threads = config.pool_threads;
  sc.setup_reps = 1;
  sc.seed = config.seed;
  std::vector<GenItem> stream;
  std::vector<double> latency_ns, submit_ns, late_ns;
  std::size_t first_id = 0;
  std::uint64_t live_restarts = 0;
  {
    ServeLoad load(sc, calibrations);
    const OpenLoop open = load.open_loop(config.live_seconds, config.open_rate);
    first_id = open.first;
    for (std::size_t k = 0; k < open.due_ns.size(); ++k) {
      const Answer& a = load.answers()[open.first + k];
      const std::int64_t done = a.ok() ? a.done_ns : open.end_ns;
      latency_ns.push_back(double(done - open.due_ns[k]));
      submit_ns.push_back(double(open.submit_end_ns[k] - open.submit_begin_ns[k]));
      late_ns.push_back(double(open.submit_begin_ns[k] - open.due_ns[k]));
      tracer.add("live.request", open.first + k, -1, open.due_ns[k], done);
      tracer.add("serve.submit", open.first + k, int(tracer.spans().size()) - 1,
                 open.submit_begin_ns[k], open.submit_end_ns[k]);
    }
    stream.assign(load.items().begin() + std::ptrdiff_t(open.first),
                  load.items().end());
    const auto cache = load.server().cache().stats();
    m.add("serve.cache.hit_rate", "ratio", hit_rate(cache),
          std::to_string(cache.hits) + " hits of " +
              std::to_string(cache.hits + cache.misses) + " lookups (live)");
    m.add("serve.cache.evictions", "count", double(cache.evictions));
    if (const sv::Supervisor* sup = load.server().supervisor())
      live_restarts = sup->counters().spawns - std::uint64_t(config.pool_threads);
    result.tally.add(load.check(20));
  }

  // --- worker hop through a bench-owned supervisor ------------------------
  std::vector<std::size_t> misses;  // first occurrences in the stream
  for (std::size_t i = 0; i < stream.size(); ++i)
    if (!stream[i].repeat) misses.push_back(i);
  std::vector<std::pair<std::size_t, double>> hop_ns;  // (stream index, ns)
  std::vector<std::string> hop_fragments;
  std::uint64_t hop_restarts = 0;
  {
    sv::SupervisorConfig supc;
    supc.workers = 1;
    sv::Supervisor sup(supc, [](const std::string&) {});
    constexpr std::size_t kHopRequests = 1000;
    for (std::size_t k = 0; k < misses.size() && hop_ns.size() < kHopRequests; ++k) {
      const std::size_t i = misses[k];
      sv::ServeRequest req = stream[i].request();
      req.id = std::to_string(first_id + i);
      req.id.insert(req.id.begin(), 'h');
      const int root = tracer.begin("serve.worker_hop", first_id + i);
      const sv::WorkerOutcome out = sup.execute(req, 0.0);
      tracer.end(root);
      const Span& s = tracer.spans()[std::size_t(root)];
      hop_ns.emplace_back(i, double(s.end_ns - s.start_ns));
      hop_fragments.push_back(out.status == sv::WorkerOutcome::Status::kOk
                                  ? out.fragment
                                  : "error: " + out.response + out.detail);
    }
    hop_restarts = sup.counters().spawns - 1;
  }

  // --- serve replay: an untraced and a traced copy step through the stream
  // in alternating chunks, so drift in host speed cancels out of the
  // tracing overhead ----------------------------------------------------
  ServeReplay plain(stream, first_id, nullptr);
  ServeReplay traced(stream, first_id, &tracer);
  double serve_plain_ns = 0.0, serve_traced_ns = 0.0;
  constexpr std::size_t kChunk = 256;
  for (std::size_t lo = 0; lo < stream.size(); lo += kChunk) {
    const std::size_t hi = std::min(stream.size(), lo + kChunk);
    const auto chunk = [&](ServeReplay& r, double& total) {
      const std::int64_t t0 = now_ns();
      for (std::size_t i = lo; i < hi; ++i) r.run(i);
      total += double(now_ns() - t0);
    };
    if ((lo / kChunk) % 2 == 0) {
      chunk(plain, serve_plain_ns);
      chunk(traced, serve_traced_ns);
    } else {
      chunk(traced, serve_traced_ns);
      chunk(plain, serve_plain_ns);
    }
  }
  traced.attribute();
  result.tally.add(check_serve_answers(stream, traced.answers, calibrations,
                                       config.seed + 1, 20));
  // The worker's answers must be byte-equal to the in-process ones.
  for (std::size_t k = 0; k < hop_ns.size(); ++k) {
    ++result.tally.attempted;
    if (hop_fragments[k] == traced.fragments[hop_ns[k].first])
      ++result.tally.correct;
    else
      result.tally.mismatch("worker-hop answer differs from in-process answer");
  }

  // Self times by span name (replay spans only carry serve.* names).
  const auto self = tracer.self_ns_by_name();
  const auto self_of = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? std::vector<double>{} : it->second;
  };
  m.median("serve.parse_us", "us", self_of("serve.parse"), 1e-3);
  m.median("serve.key_us", "us", self_of("serve.key"), 1e-3);
  m.median("serve.execute_us", "us", self_of("serve.execute"), 1e-3);
  m.median("serve.execute_mc_us", "us", self_of("serve.execute_mc"), 1e-3);
  m.median("serve.render_us", "us", self_of("serve.render"), 1e-3);
  m.median("serve.submit_us", "us", submit_ns, 1e-3);

  // Live latency the replayed calls of the same request do not explain.
  std::vector<double> wait_ns(latency_ns.size());
  for (std::size_t i = 0; i < latency_ns.size(); ++i)
    wait_ns[i] = latency_ns[i] - traced.attributed_ns[i] -
                 (config.process ? traced.codec_ns[i] : 0.0);
  m.median("serve.wait_us", "us", wait_ns, 1e-3);
  m.add("serve.unattributed_frac", "ratio", sum(wait_ns) / sum(latency_ns),
        "share of live open-loop latency outside the replayed calls");
  m.median("serve.cache.get_us", "us", self_of("serve.cache.get"), 1e-3);
  m.median("serve.cache.put_us", "us", self_of("serve.cache.put"), 1e-3);
  m.median("serve.ipc_codec_us", "us", self_of("serve.ipc_codec"), 1e-3);
  std::vector<double> ipc_wait_ns;
  for (const auto& [i, ns] : hop_ns)
    ipc_wait_ns.push_back(ns - traced.worker_side_ns[i] - traced.codec_ns[i]);
  m.median("serve.ipc_wait_us", "us", ipc_wait_ns, 1e-3);
  m.add("serve.worker_restarts", "count", double(live_restarts + hop_restarts));

  // --- core: self-check, formula, Table 1 case mix -----------------------
  std::vector<ssnkit::core::SsnScenario> lc, lonly;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (stream[i].mc || stream[i].repeat) continue;
    bool with_c = false;
    auto s = scenario_of(stream[i], calibrations, &with_c);
    const Scope span(&tracer, "core.selfcheck", first_id + i);
    if (with_c) {
      const ssnkit::core::LcModel model(s);
      model.vn_waveform(1024).maximum_in(0.0, s.t_ramp_end());
      lc.push_back(s);
    } else {
      const ssnkit::core::LOnlyModel model(s);
      model.vn_waveform(1024).maximum_in(0.0, s.t_ramp_end());
      lonly.push_back(s);
    }
  }
  m.median("core.selfcheck_us", "us",
           tracer.self_ns_by_name()["core.selfcheck"], 1e-3);
  std::vector<double> formula_ns;
  volatile double checksum = 0.0;
  for (int rep = 0; rep < 7; ++rep) {
    const int span = tracer.begin("core.formula.batch", std::uint64_t(rep));
    double acc = 0.0;
    for (const auto& s : lc) acc += ssnkit::core::LcModel(s).v_max();
    for (const auto& s : lonly) acc += ssnkit::core::LOnlyModel(s).v_max();
    tracer.end(span);
    checksum = checksum + acc;
    const Span& sp = tracer.spans()[std::size_t(span)];
    formula_ns.push_back(double(sp.end_ns - sp.start_ns) /
                         double(std::max<std::size_t>(1, lc.size() + lonly.size())));
  }
  const double formula = summarize(formula_ns).median;
  m.add("core.formula_ns", "ns", formula,
        "per closed-form evaluation, median of 7 batches of " +
            std::to_string(lc.size() + lonly.size()));
  std::map<ssnkit::core::MaxSsnCase, double> cases;
  for (const auto& s : lc) cases[ssnkit::core::LcModel(s).max_case()] += 1.0;
  const double n_lc = double(std::max<std::size_t>(1, lc.size()));
  using MC = ssnkit::core::MaxSsnCase;
  m.add("core.case1_frac", "ratio", cases[MC::kOverDamped] / n_lc);
  m.add("core.case2_frac", "ratio", cases[MC::kCriticallyDamped] / n_lc);
  m.add("core.case3a_frac", "ratio", cases[MC::kUnderDampedFirstPeak] / n_lc);
  m.add("core.case3b_frac", "ratio", cases[MC::kUnderDampedBoundary] / n_lc);

  // --- Monte Carlo at 1 and nproc threads --------------------------------
  {
    GenItem mc_item = stream.front();
    for (const GenItem& g : stream)
      if (g.mc) {
        mc_item = g;
        break;
      }
    const auto scenario = scenario_of(mc_item, calibrations);
    an::MonteCarloOptions opts;
    opts.samples = 20000;
    opts.seed = unsigned(mc_item.seed);
    std::vector<double> t1, tn;
    double mean1 = 0.0, mean_n = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      opts.threads = 1;
      {
        const Scope s(&tracer, "analysis.mc_t1", std::uint64_t(rep));
        mean1 = an::monte_carlo_vmax(scenario, opts).mean;
      }
      t1.push_back(double(tracer.spans().back().end_ns - tracer.spans().back().start_ns));
      opts.threads = config.nproc;
      {
        const Scope s(&tracer, "analysis.mc_tN", std::uint64_t(rep));
        mean_n = an::monte_carlo_vmax(scenario, opts).mean;
      }
      tn.push_back(double(tracer.spans().back().end_ns - tracer.spans().back().start_ns));
    }
    ++result.tally.attempted;
    if (same_bits(mean1, mean_n))
      ++result.tally.correct;
    else
      result.tally.mismatch("Monte Carlo mean depends on the thread count");
    const double ns1 = summarize(t1).median / opts.samples;
    const double nsn = summarize(tn).median / opts.samples;
    m.add("analysis.mc_ns_per_sample_t1", "ns", ns1, "20000 samples, median of 5");
    m.add("analysis.mc_ns_per_sample_tN", "ns", nsn,
          "20000 samples on " + std::to_string(config.nproc) + " threads, median of 5");
    m.add("analysis.mc_speedup", "ratio", ns1 / nsn);
    m.add("analysis.mc_overhead_ratio", "ratio", ns1 / formula,
          "ns per sample on one thread / core.formula_ns");
  }

  // --- transient replay on the cli_batch design points -------------------
  constexpr int kPointsPerBin = 4;
  const std::vector<CliJob> points_jobs = design_points(config.seed, kPointsPerBin);
  std::vector<TransientPoint> points;
  double tr_plain_ns = 0.0, tr_traced_ns = 0.0;
  for (std::size_t k = 0; k < points_jobs.size(); ++k) {
    const std::uint64_t id = 1'000'000'000 + k;
    const auto traced_point = [&] {
      const std::int64_t t0 = now_ns();
      points.push_back(replay_point(points_jobs[k], id, &tracer, result.tally));
      tr_traced_ns += double(now_ns() - t0);
    };
    // cli_batch's tracing overhead: each point also runs untraced, in
    // alternating order, so drift in host speed cancels out.
    if (config.cli_workload && k % 2 == 1) traced_point();
    if (config.cli_workload) {
      const std::int64_t t0 = now_ns();
      replay_point(points_jobs[k], id, nullptr, result.tally);
      tr_plain_ns += double(now_ns() - t0);
    }
    if (!config.cli_workload || k % 2 == 0) traced_point();
  }
  {
    const auto by_name = tracer.self_ns_by_name();
    const auto get = [&](const char* n) {
      const auto it = by_name.find(n);
      return it == by_name.end() ? std::vector<double>{} : it->second;
    };
    m.median("analysis.calibrate_ms", "ms", get("analysis.calibrate"), 1e-6);
    m.median("circuit.build_us", "us", get("circuit.build"), 1e-3);
    m.median("sim.dc_us", "us", get("sim.dc"), 1e-3);
  }
  std::vector<double> bins[3], steps, rs_us;
  double accepted = 0, rejected = 0, newton = 0, refinements = 0;
  double verified_ms = 0, unverified_ms = 0, linear_us = 0, transient_us = 0;
  for (const TransientPoint& tp : points) {
    bins[tp.n <= 8 ? 0 : (tp.n <= 24 ? 1 : 2)].push_back(tp.transient_ms);
    steps.push_back(double(tp.stats.accepted_steps));
    rs_us.push_back(tp.refactor_solve_us);
    accepted += double(tp.stats.accepted_steps);
    rejected += double(tp.stats.rejected_steps);
    newton += double(tp.stats.newton_iterations);
    refinements += double(tp.stats.residual_refinements);
    verified_ms += tp.transient_ms;
    unverified_ms += tp.unverified_ms;
    linear_us += tp.refactor_solve_us * double(tp.stats.newton_iterations);
    transient_us += tp.transient_ms * 1e3;
  }
  m.median("sim.transient_ms_n1_8", "ms", bins[0]);
  m.median("sim.transient_ms_n9_24", "ms", bins[1]);
  m.median("sim.transient_ms_n25_48", "ms", bins[2]);
  m.median("sim.accepted_steps", "count", steps);
  m.add("sim.rejected_frac", "ratio", rejected / std::max(1.0, accepted + rejected));
  m.add("sim.newton_per_step", "ratio", newton / std::max(1.0, accepted));
  m.median("numeric.refactor_solve_us", "us", rs_us);
  m.add("numeric.linear_share", "ratio", linear_us / transient_us,
        "refactor_solve_us x Newton iterations / measure_ssn time");
  m.add("verify.overhead_frac", "ratio", verified_ms / unverified_ms - 1.0,
        "measure_ssn verified vs verify.enabled=false, same design points");
  m.add("verify.refinements", "count", refinements);

  // --- resilience: one direct sweep of the script ------------------------
  {
    CliJob sweep_job;
    for (const CliJob& job : cli_script(config.seed, 0, 1))
      if (job.kind == CliJob::Kind::kSweep) sweep_job = job;
    const JobInputs in(sweep_job);
    an::DriverSweepConfig sweep;
    sweep.tech = in.tech;
    sweep.package = in.pkg;
    sweep.golden = in.cal.golden;
    sweep.input_rise_time = in.tr;
    sweep.driver_counts.clear();
    for (int k = 1; k <= sweep_job.max_n; k += (k < 4 ? 1 : 2))
      sweep.driver_counts.push_back(k);
    sweep.threads = config.nproc;
    const Scope s(&tracer, "analysis.sweep", 0);
    const auto r = an::run_driver_sweep(sweep);
    m.add("analysis.resilience.degraded_rows", "count",
          double(r.summary.analytic + r.summary.failed),
          "of " + std::to_string(r.rows.size()) + " sweep rows");
  }

  // --- live CLI phase: four cycles back to back, then run_cli against
  // direct-call twins of the mc and estimate jobs, in alternating order ---
  std::vector<CliRun> runs;
  std::vector<double> cli_gap_ns;
  for (const CliJob& job : cli_script(config.seed, 0, 4)) {
    const std::int64_t prev_end = runs.empty() ? 0 : runs.back().end_ns;
    runs.push_back(run_job(job, config.nproc));
    const CliRun& run = runs.back();
    tracer.add("cli.job", runs.size(), -1, run.start_ns, run.end_ns);
    if (prev_end > 0) cli_gap_ns.push_back(double(run.start_ns - prev_end));
  }
  std::vector<double> cli_overhead;
  for (std::size_t k = 0; k < runs.size(); ++k) {
    const CliJob& job = runs[k].job;
    if (job.kind != CliJob::Kind::kMc && job.kind != CliJob::Kind::kEstimate)
      continue;
    const JobInputs in(job);  // a direct caller keeps its calibration
    const auto scenario = an::make_scenario(in.cal, in.pkg, job.n, in.tr, true);
    double direct_ns = 0.0;
    const auto direct = [&] {
      const Scope s(&tracer, "cli.direct", k);
      const std::int64_t t0 = now_ns();
      if (job.kind == CliJob::Kind::kMc) {
        an::MonteCarloOptions opts;
        opts.samples = job.samples;
        opts.seed = unsigned(job.seed);
        opts.threads = config.nproc;
        (void)an::monte_carlo_vmax(scenario, opts);
      } else {
        auto meas = an::measure_ssn(in.spec(job.n));
        an::verify_measurement(meas, scenario);
        ssnkit::verify::cross_check_closed_form(
            ssnkit::core::LcModel(scenario).v_max(), meas.v_max, meas.trust);
      }
      direct_ns = double(now_ns() - t0);
    };
    if (k % 2 == 1) direct();
    const double cli_ns = run_job(job, config.nproc).us() * 1e3;
    if (k % 2 == 0) direct();
    cli_overhead.push_back((cli_ns - direct_ns) / cli_ns);
  }
  result.tally.add(check_cli_runs(runs, config.nproc, config.seed, 1, config.work_dir));
  m.median("cli.overhead_frac", "ratio", cli_overhead);

  // --- bench diagnostics --------------------------------------------------
  // Closed loop (cli_batch): the gap between one job's end and the next
  // job's start; open loop: how late the generator submitted.
  const Summary late = summarize(config.cli_workload ? cli_gap_ns : late_ns);
  m.add("gen.late_p99_us", "us", late.tail * 1e-3, describe(late, "ns"));
  const double untraced = config.cli_workload ? tr_plain_ns : serve_plain_ns;
  const double traced_wall = config.cli_workload ? tr_traced_ns : serve_traced_ns;
  m.add("trace.overhead_frac", "ratio", traced_wall / untraced - 1.0,
        config.cli_workload ? "transient replay, traced vs untraced"
                            : "serve replay, traced vs untraced");
  (void)checksum;

  if (!config.trace_out.empty()) tracer.write_tsv(config.trace_out);
  result.metrics = m.take();
  return result;
}

}  // namespace ssnbench
