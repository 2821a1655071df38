#include "analysis/montecarlo.hpp"

#include "analysis/design.hpp"
#include "core/lc_model.hpp"
#include "numeric/stats.hpp"
#include "support/parallel.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <utility>

namespace ssnkit::analysis {

namespace {

/// Mean, sigma, range and the 95 % confidence half-width on the mean of a
/// non-empty sample set.
template <class Result>
void moments(const std::vector<double>& v, Result& out) {
  out.mean = numeric::mean(v);
  out.stddev = v.size() > 1 ? numeric::stddev(v) : 0.0;
  out.min = numeric::min_value(v);
  out.max = numeric::max_value(v);
  out.ci95 = v.size() > 1 ? 1.96 * out.stddev / std::sqrt(double(v.size()))
                          : 0.0;
}

}  // namespace

void MonteCarloOptions::validate() const {
  if (samples < 2)
    throw std::invalid_argument("MonteCarloOptions: samples must be >= 2");
  for (double s : {sigma_k, sigma_lambda, sigma_vx, sigma_l, sigma_c, sigma_slope})
    if (s < 0.0 || s > 0.5)
      throw std::invalid_argument(
          "MonteCarloOptions: sigmas must be in [0, 0.5] (relative)");
}

MonteCarloResult monte_carlo_vmax(const core::SsnScenario& nominal,
                                  const MonteCarloOptions& opts) {
  opts.validate();
  nominal.validate();

  const bool with_c = nominal.capacitance > 0.0;
  const core::DampingRegion nominal_region =
      with_c ? core::LcModel(nominal).region()
             : core::DampingRegion::kOverDamped;

  // Draw every sample's multiplicative factors up front, in the exact order
  // the serial loop consumed the Gaussian stream (k, lambda, vx, L, [C],
  // S), clamped so no parameter collapses or flips sign in the far tails.
  // Hoisting the draws is what makes the parallel evaluation below
  // bit-identical to serial for any thread count.
  std::mt19937 rng(opts.seed);
  std::normal_distribution<double> gauss(0.0, 1.0);
  const auto draw = [&](double sigma) {
    return std::clamp(1.0 + sigma * gauss(rng), 0.2, 1.8);
  };
  const std::size_t stride = with_c ? 6 : 5;
  std::vector<double> factors(std::size_t(opts.samples) * stride);
  for (int i = 0; i < opts.samples; ++i) {
    double* f = &factors[std::size_t(i) * stride];
    std::size_t k = 0;
    f[k++] = draw(opts.sigma_k);
    f[k++] = draw(opts.sigma_lambda);
    f[k++] = draw(opts.sigma_vx);
    f[k++] = draw(opts.sigma_l);
    if (with_c) f[k++] = draw(opts.sigma_c);
    f[k++] = draw(opts.sigma_slope);
  }

  MonteCarloResult out;
  out.samples.resize(std::size_t(opts.samples));
  std::vector<unsigned char> flipped(std::size_t(opts.samples), 0);
  std::vector<unsigned char> done(std::size_t(opts.samples), 0);
  support::parallel_for_index(
      opts.threads, std::size_t(opts.samples),
      [&](std::size_t i) {
        const double* f = &factors[i * stride];
        core::SsnScenario s = nominal;
        std::size_t k = 0;
        s.device.k *= f[k++];
        s.device.lambda = std::max(1.0, s.device.lambda * f[k++]);
        s.device.vx *= f[k++];
        s.inductance *= f[k++];
        if (with_c) s.capacitance *= f[k++];
        s.slope *= f[k++];
        out.samples[i] = predict_vmax(s);
        if (with_c && core::LcModel(s).region() != nominal_region)
          flipped[i] = 1;
        done[i] = 1;
      },
      opts.run_ctx);

  // Keep the samples that finished, in index order: all of them unless the
  // run was stopped, in which case which ones finished depends on worker
  // timing — a partial closed-form population is best-effort, see the
  // header comment.
  std::size_t kept = 0;
  int flips = 0;
  for (std::size_t i = 0; i < done.size(); ++i) {
    if (!done[i]) continue;
    out.samples[kept++] = out.samples[i];
    flips += flipped[i];
  }
  out.samples.resize(kept);
  out.completed = kept;
  // Only report a stop that actually cost samples: workers can observe a
  // trip that lands after the final item was already claimed.
  if (out.completed < done.size() && opts.run_ctx != nullptr)
    out.stop = opts.run_ctx->stop_reason();
  if (out.samples.empty()) return out;

  moments(out.samples, out);
  out.p95 = numeric::quantile(out.samples, 0.95);
  out.p99 = numeric::quantile(out.samples, 0.99);
  out.region_flip_fraction = double(flips) / double(out.samples.size());
  return out;
}

void SimMonteCarloOptions::validate() const {
  if (samples < 1)
    throw std::invalid_argument("SimMonteCarloOptions: samples must be >= 1");
  for (double s : {sigma_l, sigma_c, sigma_rise, sigma_width})
    if (s < 0.0 || s > 0.5)
      throw std::invalid_argument(
          "SimMonteCarloOptions: sigmas must be in [0, 0.5] (relative)");
}

SimMonteCarloResult monte_carlo_vmax_sim(const Calibration& cal,
                                         const process::Package& package,
                                         int n_drivers, double rise_time,
                                         bool include_c,
                                         const SimMonteCarloOptions& opts) {
  opts.validate();
  package.validate();
  if (!(rise_time > 0.0))
    throw std::invalid_argument("monte_carlo_vmax_sim: rise_time must be > 0");

  // Draw every sample's factors up front, in a fixed order, so the sample
  // set never depends on which simulations later fail (or get injected
  // faults): survivors stay bit-for-bit comparable across runs.
  std::mt19937 rng(opts.seed);
  std::normal_distribution<double> gauss(0.0, 1.0);
  const auto vary = [&](double sigma) {
    return std::clamp(1.0 + sigma * gauss(rng), 0.2, 1.8);
  };
  SimMonteCarloResult out;
  out.samples.resize(std::size_t(opts.samples));
  for (int i = 0; i < opts.samples; ++i) {
    SimMcSample& s = out.samples[std::size_t(i)];
    s.index = i;
    s.l_factor = vary(opts.sigma_l);
    s.c_factor = vary(opts.sigma_c);
    s.rise_factor = vary(opts.sigma_rise);
    s.width_factor = vary(opts.sigma_width);
  }

  // Run the transient batch (see run_resumable_batch for the resume,
  // lifecycle and fault-scope contract).
  BatchRun batch = run_resumable_batch(
      out.samples.size(), opts.threads, opts.run_ctx, opts.journal,
      opts.resume,
      [&](std::size_t i) {
        const SimMcSample& s = out.samples[i];
        process::Package pkg = package;
        pkg.inductance *= s.l_factor;
        pkg.capacitance *= s.c_factor;
        const double tr = rise_time * s.rise_factor;

        circuit::SsnBenchSpec spec =
            make_bench_spec(cal, pkg, n_drivers, tr, include_c);
        spec.driver_width_mult = s.width_factor;

        // The calibrated closed form for this sample: K scales with the
        // driver width, everything else comes from the perturbed package
        // and edge.
        core::SsnScenario scenario =
            make_scenario(cal, pkg, n_drivers, tr, include_c);
        scenario.device.k *= s.width_factor;

        return measure_batch_item(
            spec, opts.measure, opts.recovery, opts.run_ctx,
            opts.analytic_fallback ? &scenario : nullptr);
      },
      [](std::size_t i) { return "sample=" + std::to_string(i); });
  out.completed = batch.summary.total;
  out.resumed = batch.resumed;
  out.stop = batch.summary.stop;
  out.summary = std::move(batch.summary);

  // The survivors, in index order, so their statistics and merged trust
  // come out identical for any thread count and after a resume.
  std::vector<double> survivors;
  survivors.reserve(out.samples.size());
  for (SimMcSample& s : out.samples) {
    const BatchSlot& slot = batch.slots[std::size_t(s.index)];
    if (!slot.attempted) continue;
    const ResilientMeasurement& rm = slot.result;
    s.fidelity = rm.fidelity;
    s.verdict = rm.measurement.trust.verdict;
    s.completed = true;
    s.resumed = slot.resumed;
    if (!rm.ok()) continue;
    s.v_max = rm.measurement.v_max;
    // Fold the sample's trust into the batch report: the first survivor
    // seeds it (the default-constructed report says kUnverified, which
    // merge() could never improve on), the rest merge worst-wins.
    if (survivors.empty())
      out.trust = rm.measurement.trust;
    else
      out.trust.merge(rm.measurement.trust);
    survivors.push_back(s.v_max);
  }

  out.surviving = survivors.size();
  if (!survivors.empty()) {
    moments(survivors, out);
    out.trust.ci95 = out.ci95;
  }
  return out;
}

}  // namespace ssnkit::analysis
