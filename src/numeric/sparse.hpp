// Sparse linear algebra for large MNA systems. Circuit Jacobians are
// extremely sparse (a handful of entries per row), and their sparsity
// pattern is fixed for a given (circuit, analysis mode): every element
// stamps the same coordinate set at every Newton iteration, only the
// values change. The engine exploits that with StampedMatrix (a cached
// "stamp plan": discover the pattern once, then stamp values straight
// into a reusable CSR workspace) and SparseFactor (symbolic analysis and
// pivot order computed once, numeric-only refactorization per iteration).
//
// SparseMatrix/SparseLu are one-shot triplet/CSR classes that the Newton
// solver does not use: they are SparseFactor's test oracle and the
// factor-once control of bench_perf's assembly benchmark.
#pragma once

#include "numeric/matrix.hpp"

#include <cstddef>
#include <vector>

namespace ssnkit::numeric {

/// Compressed-sparse-row matrix, built from accumulating triplets.
class SparseMatrix {
 public:
  SparseMatrix(std::size_t rows, std::size_t cols);

  /// Build from the nonzero entries of a dense matrix (|a_ij| > drop).
  static SparseMatrix from_dense(const Matrix& dense, double drop = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nonzeros() const;

  /// Accumulate a value (duplicates sum when compiled).
  void add(std::size_t r, std::size_t c, double v);

  /// Sort/merge triplets into CSR form. Idempotent; called automatically by
  /// the consumers below.
  void compile() const;

  /// Entry lookup (0 when absent). Compiles on first use.
  double at(std::size_t r, std::size_t c) const;

  /// y = A x.
  Vector mul(const Vector& x) const;

  /// Dense copy (for tests and small-problem fallbacks).
  Matrix to_dense() const;

  // CSR access (valid after compile()).
  const std::vector<std::size_t>& row_ptr() const;
  const std::vector<std::size_t>& col_idx() const;
  const std::vector<double>& values() const;

 private:
  struct Triplet {
    std::size_t r, c;
    double v = 0.0;
  };

  std::size_t rows_, cols_;
  mutable std::vector<Triplet> triplets_;
  mutable bool compiled_ = false;
  mutable std::vector<std::size_t> row_ptr_;
  mutable std::vector<std::size_t> col_idx_;
  mutable std::vector<double> values_;
};

/// Sparse LU with partial pivoting (Gilbert–Peierls left-looking
/// factorization over a column-compressed copy). Suitable for the
/// unsymmetric, diagonally-dominant-ish matrices MNA produces.
class SparseLu {
 public:
  explicit SparseLu(const SparseMatrix& a);

  bool singular() const { return singular_; }
  std::size_t size() const { return n_; }
  /// Total stored entries of L + U (fill-in metric for tests/benches).
  std::size_t factor_nonzeros() const;

  /// Solve A x = b; throws std::runtime_error when singular.
  Vector solve(const Vector& b) const;

 private:
  std::size_t n_ = 0;
  bool singular_ = false;
  // Column-major factors: L has unit diagonal (not stored).
  std::vector<std::vector<std::size_t>> l_rows_, u_rows_;
  std::vector<std::vector<double>> l_vals_, u_vals_;
  std::vector<double> u_diag_;
  std::vector<std::size_t> perm_;  // row permutation: PA = LU
};

/// Fixed-pattern CSR matrix for repeated assembly ("stamp plan" + value
/// workspace). Two modes:
///
///  - discovery: begin_pattern(n) starts collecting (row, col, value)
///    triplets; finalize_pattern() sorts/merges them into CSR form. The
///    discovery pass doubles as a normal assembly — the merged values are
///    immediately usable.
///  - bound: with a finalized pattern, clear() zeroes the values and add()
///    accumulates into the existing slot via binary search. An add() at a
///    coordinate outside the pattern is counted in missed() instead of
///    stored — the caller asserts the pattern held and rebuilds if not.
///
/// epoch() increments on every finalize_pattern(), letting factorizations
/// detect that their symbolic analysis went stale.
class StampedMatrix {
 public:
  StampedMatrix() = default;

  /// Discard any pattern and start a discovery pass for an n x n system.
  void begin_pattern(std::size_t n);
  /// Sort/merge the discovered triplets into CSR; bumps epoch().
  void finalize_pattern();
  /// Drop the pattern entirely (next assembly must rediscover).
  void reset_pattern();

  bool discovering() const { return discovering_; }
  bool has_pattern() const { return !discovering_ && n_ > 0; }
  std::size_t size() const { return n_; }
  std::size_t nonzeros() const { return col_idx_.size(); }
  /// Pattern generation counter (0 = never finalized).
  std::size_t epoch() const { return epoch_; }

  /// Zero the values for a fresh bound-mode assembly; resets missed().
  void clear();
  /// Accumulate a value (both modes; see class comment).
  void add(std::size_t r, std::size_t c, double v);
  /// Bound-mode adds that fell outside the pattern since the last clear().
  std::size_t missed() const { return missed_; }

  /// Entry lookup (0 when absent). Pattern must be finalized.
  double at(std::size_t r, std::size_t c) const;
  /// y = A x into a caller-provided vector (no allocation).
  void mul_into(const Vector& x, Vector& y) const;
  /// Dense copy (tests).
  Matrix to_dense() const;

  // CSR access (valid once finalized).
  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::size_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

 private:
  /// Slot of (r, c) in the CSR arrays, or npos when outside the pattern.
  std::size_t slot(std::size_t r, std::size_t c) const;

  struct Triplet {
    std::size_t r = 0, c = 0;
    double v = 0.0;
  };

  std::size_t n_ = 0;
  bool discovering_ = false;
  std::size_t epoch_ = 0;
  std::size_t missed_ = 0;
  std::vector<Triplet> triplets_;  // discovery only; freed on finalize
  std::vector<std::size_t> row_ptr_, col_idx_;
  std::vector<double> values_;
};

/// Sparse LU (Gilbert–Peierls, partial pivoting) split into a full
/// factorization — which performs the symbolic reachability analysis,
/// chooses the pivot order and records the fill pattern — and a numeric
/// refactorization that replays the elimination over the recorded pattern
/// with fresh values. Because an MNA Jacobian's pattern is fixed across
/// Newton iterations and timesteps, the engine factorizes once per pattern
/// epoch and refactorizes everywhere else; solve() is allocation-free.
///
/// Unlike SparseLu, exact-zero entries are kept in the stored pattern so a
/// later refactorization with different values cannot silently lose fill.
class SparseFactor {
 public:
  SparseFactor() = default;

  /// Full factorization: symbolic analysis + pivoting + numerics.
  /// Returns false (and singular() == true) on a singular system.
  bool factorize(const StampedMatrix& a);

  /// Numeric-only refactorization reusing the previous pivot order and
  /// fill pattern. Returns false when the matrix shape/epoch changed, no
  /// factorization exists, a reused pivot degraded badly (the caller
  /// should re-factorize), or the system went singular.
  bool refactorize(const StampedMatrix& a);

  bool singular() const { return singular_; }
  std::size_t size() const { return n_; }
  /// Pattern epoch of the StampedMatrix this factorization was built for.
  std::size_t pattern_epoch() const { return epoch_; }
  /// Total stored entries of L + U (fill-in metric for tests/benches).
  std::size_t factor_nonzeros() const;

  /// Solve A x = b into a caller-provided vector (resized to n; no other
  /// allocation). Throws support::SolverError when singular.
  void solve(const Vector& b, Vector& x) const;

  /// Solve A^T x = b using the same factors (PA = LU gives
  /// A^T = U^T L^T P, so one ascending U^T sweep, one descending L^T
  /// sweep, and the row permutation on the way out). Needed by the Hager
  /// 1-norm condition estimator, which alternates A and A^T solves; it runs
  /// once per factorization epoch, never per accepted step, so the local
  /// scratch vector here is off the hot path. Throws when singular.
  void solve_transpose(const Vector& b, Vector& x) const;

  /// One step of iterative refinement against the currently stamped values:
  /// r = b - A x, solve A d = r, x += d. `r` and `d` are caller scratch so
  /// repeated calls allocate nothing. The factors must match `a`'s epoch
  /// (the usual solve precondition); the caller re-measures the residual
  /// afterwards to decide whether the refinement recovered the solve.
  void refine(const StampedMatrix& a, const Vector& b, Vector& x, Vector& r,
              Vector& d) const;

 private:
  static constexpr std::size_t npos = std::size_t(-1);

  /// Fault-injection hook (kFactorBitFlip): in fault-injection builds an
  /// armed site flips one mantissa bit of a stored pivot after a successful
  /// (re)factorization — the "silently wrong solve" corruption the verify
  /// layer's residual check must catch. Compiled to nothing elsewhere.
  void maybe_corrupt_factors();

  std::size_t n_ = 0;
  std::size_t epoch_ = npos;
  bool singular_ = true;
  // Column-compressed copy of A's pattern; csc_src_[p] indexes into the
  // StampedMatrix CSR values array so refactorize can gather without
  // rebuilding the transpose.
  std::vector<std::size_t> csc_ptr_, csc_row_, csc_src_;
  // Per-column elimination pattern in topological order (original row
  // indices, as discovered by the symbolic DFS at factorize time).
  std::vector<std::vector<std::size_t>> pat_;
  // Column-major factors: L has unit diagonal (not stored); row indices
  // are original (unpermuted) for L, pivot positions for U.
  std::vector<std::vector<std::size_t>> l_rows_, u_rows_;
  std::vector<std::vector<double>> l_vals_, u_vals_;
  std::vector<double> u_diag_;
  std::vector<std::size_t> perm_;  // pivot position -> original row
  std::vector<std::size_t> pinv_;  // original row -> pivot position
  std::vector<double> work_;       // scatter workspace (kept zeroed)
};

}  // namespace ssnkit::numeric
