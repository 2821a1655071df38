#include "check.hpp"

#include "trace.hpp"

#include "analysis/montecarlo.hpp"
#include "analysis/resilience.hpp"
#include "core/l_only_model.hpp"
#include "core/lc_model.hpp"

#include <cstdlib>
#include <cstring>
#include <limits>
#include <string_view>
#include <unordered_map>

namespace ssnbench {

namespace an = ssnkit::analysis;

std::uint64_t fnv1a(const char* data, std::size_t size) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

double json_field(const std::string& fragment, const char* name) {
  const std::string marker = std::string("\"") + name + "\":";
  const std::size_t at = fragment.find(marker);
  if (at == std::string::npos) return std::numeric_limits<double>::quiet_NaN();
  return std::strtod(fragment.c_str() + at + marker.size(), nullptr);
}

void record_answer(const std::string& line, bool keep_fragment, Answer& out) {
  out.done_ns = now_ns();
  static const std::string kResult = ",\"result\":";
  const std::size_t at = line.find(kResult);
  if (at == std::string::npos || line.empty() || line.back() != '}') {
    out.status = Answer::Status::kError;
    const std::size_t code = line.find("\"code\":\"");
    out.error_code = code == std::string::npos ? "unparsed"
                                               : line.substr(code + 8, 8);
    return;
  }
  const char* frag = line.data() + at + kResult.size();
  const std::size_t len = line.size() - 1 - (at + kResult.size());
  const std::string_view head(line.data(), at);
  out.status = head.find("\"cached\":true") != std::string_view::npos
                   ? Answer::Status::kCached
                   : Answer::Status::kOk;
  out.fragment_fnv = fnv1a(frag, len);
  out.fragment_len = std::uint32_t(len);
  const std::string_view body(frag, len);
  const std::size_t verdict = body.find("\"verdict\":\"");
  if (verdict != std::string_view::npos) {
    const std::string_view v = body.substr(verdict + 11);
    out.trusted = v.starts_with("verified\"") || v.starts_with("refined\"");
  }
  const char* number_key = body.starts_with("{\"samples\":") ? "\"mean\":"
                                                             : "\"v_max\":";
  const std::size_t num = body.find(number_key);
  if (num != std::string_view::npos)
    out.number = std::strtod(frag + num + std::strlen(number_key), nullptr);
  if (keep_fragment) out.fragment.assign(frag, len);
}

void CheckTally::mismatch(const std::string& what) {
  ++mismatches;
  if (examples.size() < 5) examples.push_back(what);
}

void CheckTally::add(const CheckTally& o) {
  attempted += o.attempted;
  correct += o.correct;
  failed += o.failed;
  mismatches += o.mismatches;
  sampled += o.sampled;
  for (const auto& e : o.examples)
    if (examples.size() < 5) examples.push_back(e);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

namespace {

/// Direct threads=1 Monte Carlo, compared field by field.
std::string check_mc_direct(const GenItem& item, const Answer& a,
                            const Calibrations& calibrations) {
  an::MonteCarloOptions opts;
  opts.samples = item.samples;
  opts.seed = unsigned(item.seed);
  opts.threads = 1;
  const auto mc = an::monte_carlo_vmax(scenario_of(item, calibrations), opts);
  const std::pair<const char*, double> fields[] = {
      {"mean", mc.mean}, {"stddev", mc.stddev}, {"min", mc.min},
      {"max", mc.max},   {"p95", mc.p95},       {"p99", mc.p99},
      {"ci95", mc.ci95}};
  for (const auto& [name, value] : fields)
    if (!same_bits(json_field(a.fragment, name), value))
      return std::string("mc ") + name + " differs from direct threads=1 call";
  return "";
}

/// Direct simulator measurement, built as the serve handler builds it.
std::string check_sim_direct(const GenItem& item, const Answer& a,
                             const Calibrations& calibrations) {
  bool with_c = false;
  const auto scenario = scenario_of(item, calibrations, &with_c);
  const auto& cal = calibrations.at(item.tech, item.golden);
  ssnkit::circuit::SsnBenchSpec spec;
  spec.tech = cal.tech;
  spec.package = package_of(item.request());
  spec.golden = cal.golden;
  spec.n_drivers = item.n;
  spec.input_rise_time = item.tr;
  spec.include_package_c = with_c;
  const auto m = an::measure_ssn_resilient(spec, {}, {}, &scenario);
  if (!m.ok()) return "direct simulation failed";
  if (!same_bits(json_field(a.fragment, "v_max_sim"), m.measurement.v_max))
    return "sim v_max differs from direct measure_ssn_resilient call";
  return "";
}

std::vector<std::size_t> pick_sample(const std::vector<std::size_t>& from,
                                     std::size_t cap, Rng& rng) {
  std::vector<std::size_t> pool = from;
  const std::size_t take = std::min(cap, pool.size());
  for (std::size_t i = 0; i < take; ++i)
    std::swap(pool[i], pool[i + std::size_t(rng.raw() % (pool.size() - i))]);
  pool.resize(take);
  return pool;
}

}  // namespace

ssnkit::core::SsnScenario scenario_of(const GenItem& item,
                                      const Calibrations& calibrations,
                                      bool* with_c_out) {
  const auto req = item.request();
  const auto pkg = package_of(req);
  const bool with_c = req.include_c && pkg.capacitance > 0.0;
  if (with_c_out) *with_c_out = with_c;
  return an::make_scenario(calibrations.at(item.tech, item.golden), pkg,
                           item.n, item.tr, with_c);
}

double expected_v_max(const GenItem& item, const Calibrations& calibrations) {
  bool with_c = false;
  const auto scenario = scenario_of(item, calibrations, &with_c);
  return with_c ? ssnkit::core::LcModel(scenario).v_max()
                : ssnkit::core::LOnlyModel(scenario).v_max();
}

CheckTally check_serve_answers(const std::vector<GenItem>& items,
                               const std::vector<Answer>& answers,
                               const Calibrations& calibrations,
                               std::uint64_t sample_seed,
                               std::size_t sample_cap) {
  CheckTally tally;
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::uint32_t>>
      first;
  std::vector<std::string> why(items.size());
  std::vector<std::size_t> mc_ok, sim_ok;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const GenItem& item = items[i];
    const Answer& a = answers[i];
    if (!a.ok()) continue;
    const auto [it, inserted] =
        first.emplace(item.key, std::make_pair(a.fragment_fnv, a.fragment_len));
    if (!inserted &&
        it->second != std::make_pair(a.fragment_fnv, a.fragment_len))
      why[i] = "answer is not byte-equal to the first answer for its key";
    else if (!item.mc && !same_bits(a.number, expected_v_max(item, calibrations)))
      why[i] = "v_max differs from the closed form";
    else if (!item.sim && !a.trusted)
      why[i] = "closed-form verdict is neither verified nor refined";
    if (item.mc && keeps_fragment(item)) mc_ok.push_back(i);
    if (item.sim) sim_ok.push_back(i);
  }
  Rng rng(sample_seed);
  for (std::size_t i : pick_sample(mc_ok, sample_cap, rng)) {
    ++tally.sampled;
    if (why[i].empty()) why[i] = check_mc_direct(items[i], answers[i], calibrations);
  }
  for (std::size_t i : pick_sample(sim_ok, sample_cap, rng)) {
    ++tally.sampled;
    if (why[i].empty()) why[i] = check_sim_direct(items[i], answers[i], calibrations);
  }
  for (std::size_t i = 0; i < items.size(); ++i) {
    ++tally.attempted;
    if (!answers[i].ok()) {
      ++tally.failed;
    } else if (!why[i].empty()) {
      tally.mismatch("request " + std::to_string(i) + ": " + why[i]);
    } else {
      ++tally.correct;
    }
  }
  return tally;
}

}  // namespace ssnbench
