// Seeded request generator for the serve workloads.
//
// Every fresh request gets a serve::cache_key no earlier request has (a
// draw that collides is redrawn), so the cache hit rate is set by the
// repeat share alone. A repeat re-sends an earlier fresh request: half of
// the repeats come from a recent window that fits the server's cache, half
// from the whole history, which is mostly evicted.
//
// Parameter ranges: all techs, goldens and packages; pads 1-4; n 1-64; tr
// log-uniform 20 ps - 1 ns; include_c on 80 %; occasional l/c overrides,
// some of which put c exactly at the critical capacitance so that all four
// Table 1 cases occur.
#pragma once

#include "analysis/calibrate.hpp"
#include "serve/protocol.hpp"

#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

namespace ssnbench {

/// Small deterministic PRNG helpers over std::mt19937_64 (the standard
/// distributions are not specified bit-for-bit across libraries).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : eng_(seed) {}
  double uniform() { return double(eng_() >> 11) * 0x1.0p-53; }
  /// Integer in [lo, hi].
  int between(int lo, int hi) {
    return lo + int(eng_() % std::uint64_t(hi - lo + 1));
  }
  double log_uniform(double lo, double hi);
  bool chance(double p) { return uniform() < p; }
  std::uint64_t raw() { return eng_(); }

 private:
  std::mt19937_64 eng_;
};

inline constexpr std::array<const char*, 3> kTechs = {"180nm", "250nm",
                                                      "350nm"};
inline constexpr std::array<const char*, 2> kGoldens = {"alpha", "bsim"};
inline constexpr std::array<const char*, 4> kPackages = {"pga", "qfp",
                                                         "wire_bond",
                                                         "flip_chip"};

/// The six (tech, golden) calibrations, fitted once. The generator uses
/// them to place capacitances at the critical value; the checker uses them
/// to recompute answers.
class Calibrations {
 public:
  Calibrations();
  const ssnkit::analysis::Calibration& get(const std::string& tech,
                                           const std::string& golden) const;
  const ssnkit::analysis::Calibration& at(int tech, int golden) const {
    return fits_[std::size_t(tech * 2 + golden)];
  }

 private:
  std::vector<ssnkit::analysis::Calibration> fits_;
};

/// The package a request resolves to (pads, then l/c overrides), exactly
/// as the serve handlers build it.
ssnkit::process::Package package_of(const ssnkit::serve::ServeRequest& r);

/// One generated request in compact form (the streams hold hundreds of
/// thousands of them, and a ServeRequest carries five strings).
struct GenItem {
  std::uint64_t key = 0;  ///< serve::cache_key of the request
  double tr = 0.0;        ///< [s]
  double l = -1.0;        ///< [H] override, < 0 = package default
  double c = -1.0;        ///< [F] override, < 0 = package default
  std::int32_t samples = 0;
  std::int32_t seed = 0;
  std::int16_t n = 1;
  std::uint8_t tech = 0, golden = 0, package = 0, pads = 1;
  bool mc = false;
  bool include_c = true;
  bool sim = false;
  bool repeat = false;

  ssnkit::serve::ServeRequest request() const;
};

class RequestGen {
 public:
  /// `repeat_frac` is the share of requests that repeat an earlier key
  /// (0.30 in the serve workloads).
  RequestGen(std::uint64_t seed, double repeat_frac,
             const Calibrations& calibrations);

  /// Next request of the closed-form stream (estimate or mc).
  GenItem next();

  /// A fresh simulator-backed estimate (`sim:true`) with `n` drivers.
  GenItem next_sim(int n);

  /// A fresh closed-form `mc` request (200-2000 samples).
  GenItem next_mc();

  /// A fresh estimate for one tech/golden pair, kept out of the repeat
  /// history (set-up warm-ups).
  GenItem warmup(int tech, int golden);

  std::size_t fresh_count() const { return history_.size(); }

  /// Start the stream over from its seed, keeping allocated memory.
  void restart();

 private:
  GenItem draw(bool allow_mc, bool force_mc);
  GenItem fresh(bool allow_mc, int force_n, int tech = -1, int golden = -1,
                bool force_mc = false);

  std::uint64_t seed_;
  Rng rng_;
  const Calibrations& cal_;
  double repeat_frac_;
  std::vector<GenItem> history_;  ///< fresh requests, in order
  std::unordered_set<std::uint64_t> keys_;
};

/// The wire line for a generated request, with id "r<index>".
std::string request_line(const GenItem& item, std::uint64_t index);

}  // namespace ssnbench
