#include "gen.hpp"

#include <cmath>
#include <stdexcept>

namespace ssnbench {

using ssnkit::serve::ServeRequest;

double Rng::log_uniform(double lo, double hi) {
  return lo * std::exp(uniform() * std::log(hi / lo));
}

Calibrations::Calibrations() {
  for (const char* tech : kTechs)
    for (const char* golden : kGoldens)
      fits_.push_back(ssnkit::analysis::calibrate(
          ssnkit::process::technology_by_name(tech),
          std::string(golden) == "bsim"
              ? ssnkit::process::GoldenKind::kBsimLite
              : ssnkit::process::GoldenKind::kAlphaPower));
}

const ssnkit::analysis::Calibration& Calibrations::get(
    const std::string& tech, const std::string& golden) const {
  for (std::size_t t = 0; t < kTechs.size(); ++t)
    for (std::size_t g = 0; g < kGoldens.size(); ++g)
      if (tech == kTechs[t] && golden == kGoldens[g])
        return at(int(t), int(g));
  throw std::invalid_argument("no calibration for " + tech + "/" + golden);
}

ssnkit::process::Package package_of(const ServeRequest& r) {
  ssnkit::process::Package pkg = ssnkit::process::package_by_name(r.package);
  if (r.pads > 1) pkg = pkg.with_ground_pads(r.pads);
  if (r.inductance >= 0.0) pkg.inductance = r.inductance;
  if (r.capacitance >= 0.0) pkg.capacitance = r.capacitance;
  return pkg;
}

ServeRequest GenItem::request() const {
  ServeRequest r;
  r.cmd = mc ? "mc" : "estimate";
  r.tech = kTechs[tech];
  r.golden = kGoldens[golden];
  r.package = kPackages[package];
  r.pads = pads;
  r.inductance = l;
  r.capacitance = c;
  r.n_drivers = n;
  r.rise_time = tr;
  r.include_c = include_c;
  r.sim = sim;
  if (mc) {
    r.samples = samples;
    r.seed = seed;
  }
  return r;
}

std::string request_line(const GenItem& item, std::uint64_t index) {
  ServeRequest r = item.request();
  r.id = std::to_string(index);
  r.id.insert(r.id.begin(), 'r');
  return ssnkit::serve::render_request(r);
}

namespace {

constexpr double kMcFrac = 0.02;        // fresh requests that are `mc`
constexpr std::size_t kRecent = 2048;   // recent window, fits the cache
constexpr double kOverrideFrac = 0.05;  // each of l and c is overridden
constexpr double kCriticalFrac = 0.01;  // estimates placed at zeta = 1

}  // namespace

RequestGen::RequestGen(std::uint64_t seed, double repeat_frac,
                       const Calibrations& calibrations)
    : seed_(seed), rng_(seed), cal_(calibrations), repeat_frac_(repeat_frac) {}

void RequestGen::restart() {
  rng_ = Rng(seed_);
  history_.clear();
  keys_.clear();
}

GenItem RequestGen::draw(bool allow_mc, bool force_mc) {
  GenItem g;
  g.mc = force_mc || (allow_mc && rng_.chance(kMcFrac));
  g.tech = std::uint8_t(rng_.between(0, int(kTechs.size()) - 1));
  g.golden = std::uint8_t(rng_.between(0, int(kGoldens.size()) - 1));
  g.package = std::uint8_t(rng_.between(0, int(kPackages.size()) - 1));
  g.pads = std::uint8_t(rng_.between(1, 4));
  g.n = std::int16_t(rng_.between(1, 64));
  g.tr = rng_.log_uniform(20e-12, 1e-9);
  g.include_c = rng_.chance(0.8);
  if (rng_.chance(kOverrideFrac)) g.l = rng_.log_uniform(0.5e-9, 10e-9);
  if (rng_.chance(kOverrideFrac)) g.c = rng_.log_uniform(0.1e-12, 20e-12);
  if (g.mc) {
    g.samples = rng_.between(200, 2000);
    g.seed = rng_.between(0, 1 << 30);
  } else if (g.include_c && rng_.chance(kCriticalFrac)) {
    // Table 1 case 2 needs zeta within 1e-6 of one, which a random draw
    // never hits: put c exactly at this request's critical capacitance.
    const auto scenario = ssnkit::analysis::make_scenario(
        cal_.at(g.tech, g.golden), package_of(g.request()), g.n, g.tr, true);
    g.c = scenario.critical_capacitance();
  }
  return g;
}

GenItem RequestGen::fresh(bool allow_mc, int force_n, int tech,
                          int golden, bool force_mc) {
  while (true) {
    GenItem g = draw(allow_mc, force_mc);
    if (force_n > 0) {
      g.n = std::int16_t(force_n);
      g.sim = true;
    }
    if (tech >= 0) {
      g.tech = std::uint8_t(tech);
      g.golden = std::uint8_t(golden);
    }
    g.key = ssnkit::serve::cache_key(g.request());
    if (!keys_.insert(g.key).second) continue;  // never alias a fresh key
    if (tech < 0) history_.push_back(g);
    return g;
  }
}

GenItem RequestGen::next() {
  if (!history_.empty() && rng_.chance(repeat_frac_)) {
    const std::size_t h = history_.size();
    const std::size_t window = std::min(h, kRecent);
    const std::size_t pick =
        rng_.chance(0.5) ? h - 1 - std::size_t(rng_.raw() % window)
                         : std::size_t(rng_.raw() % h);
    GenItem g = history_[pick];
    g.repeat = true;
    return g;
  }
  return fresh(true, 0);
}

GenItem RequestGen::next_sim(int n) { return fresh(false, n); }

GenItem RequestGen::next_mc() { return fresh(true, 0, -1, -1, true); }

GenItem RequestGen::warmup(int tech, int golden) {
  return fresh(false, 0, tech, golden);
}

}  // namespace ssnbench
