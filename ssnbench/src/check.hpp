// The answer checker. Every answer the benchmark receives is checked; a
// mismatch counts against ok_frac and makes the command exit non-zero.
//
// Serve answers:
//   - every closed-form v_max is recomputed through analysis::make_scenario
//     plus core::LcModel / LOnlyModel and must match bit for bit;
//   - every answer for a key must be byte-equal to the first answer for
//     that key (cached or recomputed);
//   - every closed-form verdict must be verified or refined;
//   - a seeded sample of mc answers is recomputed with a direct threads=1
//     monte_carlo_vmax call, and a seeded sample of sim answers with a
//     direct measure_ssn_resilient call, both compared bit for bit.
#pragma once

#include "gen.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace ssnbench {

/// What a response sink keeps of one answer: enough to check it later
/// without holding every response line.
struct Answer {
  enum class Status : std::uint8_t { kPending, kOk, kCached, kError };
  Status status = Status::kPending;
  bool trusted = false;        ///< verdict verified or refined
  std::int64_t done_ns = 0;    ///< when the sink ran
  std::uint64_t fragment_fnv = 0;
  std::uint32_t fragment_len = 0;
  double number = 0.0;         ///< estimate: v_max; mc: mean
  std::string fragment;        ///< kept when keeps_fragment(item)
  std::string error_code;      ///< for !ok answers

  bool ok() const { return status == Status::kOk || status == Status::kCached; }
};

/// Bit-for-bit equality of two doubles (NaN payloads included).
bool same_bits(double a, double b);

/// FNV-1a over a byte range.
std::uint64_t fnv1a(const char* data, std::size_t size);

/// Whether a sink keeps the full fragment of this item's answer: every
/// sim answer, and the mc answers of one key in 16 (the pool the mc sample
/// check draws from; keeping all of them would tie peak RSS to throughput).
inline bool keeps_fragment(const GenItem& item) {
  return item.sim || (item.mc && item.key % 16 == 0);
}

/// Fill `out` from one response line (called in the sink: no JSON parse,
/// only the textual markers render_ok guarantees).
void record_answer(const std::string& line, bool keep_fragment, Answer& out);

/// The number after `"name":` in a JSON fragment; NaN when absent.
double json_field(const std::string& fragment, const char* name);

struct CheckTally {
  std::uint64_t attempted = 0;
  std::uint64_t correct = 0;     ///< answered and passed every check
  std::uint64_t failed = 0;      ///< error, shed, or no answer
  std::uint64_t mismatches = 0;  ///< answered but wrong
  std::uint64_t sampled = 0;     ///< answers recomputed by a direct call
  std::vector<std::string> examples;  ///< first few mismatch descriptions

  void mismatch(const std::string& what);
  void add(const CheckTally& other);
};

/// Check `answers[i]` against `items[i]` for every i. `sample_seed` picks
/// which mc / sim answers are recomputed directly (up to `sample_cap`
/// each).
CheckTally check_serve_answers(const std::vector<GenItem>& items,
                               const std::vector<Answer>& answers,
                               const Calibrations& calibrations,
                               std::uint64_t sample_seed,
                               std::size_t sample_cap);

/// The scenario the serve handlers build for `item`; `with_c` receives
/// whether the LC model applies.
ssnkit::core::SsnScenario scenario_of(const GenItem& item,
                                      const Calibrations& calibrations,
                                      bool* with_c = nullptr);

/// The closed-form v_max a correct server returns for `item`.
double expected_v_max(const GenItem& item, const Calibrations& calibrations);

}  // namespace ssnbench
