#include "numeric/sparse.hpp"

#include "support/contracts.hpp"
#include "support/diagnostics.hpp"
#include "support/faultinject.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace ssnkit::numeric {

namespace {
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
}

SparseMatrix::SparseMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols) {}

SparseMatrix SparseMatrix::from_dense(const Matrix& dense, double drop) {
  SparseMatrix s(dense.rows(), dense.cols());
  for (std::size_t r = 0; r < dense.rows(); ++r)
    for (std::size_t c = 0; c < dense.cols(); ++c)
      if (std::fabs(dense(r, c)) > drop) s.add(r, c, dense(r, c));
  return s;
}

void SparseMatrix::add(std::size_t r, std::size_t c, double v) {
  if (r >= rows_ || c >= cols_)
    throw std::out_of_range("SparseMatrix::add: index out of range");
  triplets_.push_back({r, c, v});
  compiled_ = false;
}

void SparseMatrix::compile() const {
  if (compiled_) return;
  std::sort(triplets_.begin(), triplets_.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.r != b.r ? a.r < b.r : a.c < b.c;
            });
  row_ptr_.assign(rows_ + 1, 0);
  col_idx_.clear();
  values_.clear();
  std::size_t i = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    row_ptr_[r] = col_idx_.size();
    while (i < triplets_.size() && triplets_[i].r == r) {
      const std::size_t c = triplets_[i].c;
      double v = 0.0;
      while (i < triplets_.size() && triplets_[i].r == r && triplets_[i].c == c)
        v += triplets_[i++].v;
      col_idx_.push_back(c);
      values_.push_back(v);
    }
  }
  row_ptr_[rows_] = col_idx_.size();
  compiled_ = true;
}

std::size_t SparseMatrix::nonzeros() const {
  compile();
  return values_.size();
}

double SparseMatrix::at(std::size_t r, std::size_t c) const {
  compile();
  for (std::size_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i)
    if (col_idx_[i] == c) return values_[i];
  return 0.0;
}

Vector SparseMatrix::mul(const Vector& x) const {
  if (x.size() != cols_) throw std::invalid_argument("SparseMatrix::mul: size");
  compile();
  Vector y(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i)
      acc += values_[i] * x[col_idx_[i]];
    y[r] = acc;
  }
  return y;
}

Matrix SparseMatrix::to_dense() const {
  compile();
  Matrix d(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i)
      d(r, col_idx_[i]) = values_[i];
  return d;
}

const std::vector<std::size_t>& SparseMatrix::row_ptr() const {
  compile();
  return row_ptr_;
}
const std::vector<std::size_t>& SparseMatrix::col_idx() const {
  compile();
  return col_idx_;
}
const std::vector<double>& SparseMatrix::values() const {
  compile();
  return values_;
}

// --- SparseLu ----------------------------------------------------------------

SparseLu::SparseLu(const SparseMatrix& a) {
  SSN_REQUIRE(a.rows() == a.cols(), "SparseLu: matrix must be square");
  n_ = a.rows();
  a.compile();

  // Column-compressed copy of A.
  std::vector<std::size_t> ccol_ptr(n_ + 1, 0);
  std::vector<std::size_t> crow_idx(a.nonzeros());
  std::vector<double> cvals(a.nonzeros());
  {
    const auto& rp = a.row_ptr();
    const auto& ci = a.col_idx();
    const auto& vv = a.values();
    for (std::size_t i = 0; i < ci.size(); ++i) ccol_ptr[ci[i] + 1]++;
    for (std::size_t c = 0; c < n_; ++c) ccol_ptr[c + 1] += ccol_ptr[c];
    std::vector<std::size_t> next(ccol_ptr.begin(), ccol_ptr.end() - 1);
    for (std::size_t r = 0; r < n_; ++r)
      for (std::size_t i = rp[r]; i < rp[r + 1]; ++i) {
        const std::size_t dst = next[ci[i]]++;
        crow_idx[dst] = r;
        cvals[dst] = vv[i];
      }
  }

  l_rows_.resize(n_);
  l_vals_.resize(n_);
  u_rows_.resize(n_);
  u_vals_.resize(n_);
  u_diag_.assign(n_, 0.0);
  perm_.assign(n_, kNone);

  std::vector<std::size_t> pinv(n_, kNone);  // original row -> pivot position
  std::vector<double> x(n_, 0.0);
  std::vector<std::size_t> visited(n_, kNone);  // epoch stamps
  std::vector<std::size_t> pattern;             // postorder DFS output
  std::vector<std::size_t> dfs_stack, dfs_edge;

  for (std::size_t j = 0; j < n_; ++j) {
    // Symbolic: reachability of A(:,j)'s rows through the columns of L,
    // collected in postorder (reverse = topological for the numeric pass).
    pattern.clear();
    for (std::size_t p = ccol_ptr[j]; p < ccol_ptr[j + 1]; ++p) {
      const std::size_t root = crow_idx[p];
      if (visited[root] == j) continue;
      dfs_stack.assign(1, root);
      dfs_edge.assign(1, 0);
      visited[root] = j;
      while (!dfs_stack.empty()) {
        const std::size_t t = dfs_stack.back();
        const std::size_t k = pinv[t];
        bool descended = false;
        if (k != kNone) {
          std::size_t& e = dfs_edge.back();
          while (e < l_rows_[k].size()) {
            const std::size_t child = l_rows_[k][e++];
            if (visited[child] != j) {
              visited[child] = j;
              dfs_stack.push_back(child);
              dfs_edge.push_back(0);
              descended = true;
              break;
            }
          }
        }
        if (!descended && (k == kNone || dfs_edge.back() >= l_rows_[k].size())) {
          pattern.push_back(t);
          dfs_stack.pop_back();
          dfs_edge.pop_back();
        }
      }
    }

    // Numeric: scatter A(:,j) and eliminate in topological order.
    for (std::size_t p = ccol_ptr[j]; p < ccol_ptr[j + 1]; ++p)
      x[crow_idx[p]] += cvals[p];
    for (std::size_t idx = pattern.size(); idx-- > 0;) {
      const std::size_t t = pattern[idx];
      const std::size_t k = pinv[t];
      if (k == kNone) continue;
      const double xt = x[t];
      if (xt == 0.0) continue;  // ssnlint-ignore(SSN-L001)
      for (std::size_t q = 0; q < l_rows_[k].size(); ++q)
        x[l_rows_[k][q]] -= l_vals_[k][q] * xt;
    }

    // Pivot: the largest-magnitude entry among not-yet-pivotal rows.
    std::size_t pivot_row = kNone;
    double pivot_mag = 0.0;
    for (std::size_t t : pattern) {
      if (pinv[t] != kNone) continue;
      const double mag = std::fabs(x[t]);
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = t;
      }
    }
    if (pivot_row == kNone ||
        pivot_mag < std::numeric_limits<double>::min() * 16) {
      singular_ = true;
      for (std::size_t t : pattern) x[t] = 0.0;  // leave state clean
      return;
    }
    const double pivot = x[pivot_row];
    u_diag_[j] = pivot;
    perm_[j] = pivot_row;
    pinv[pivot_row] = j;

    for (std::size_t t : pattern) {
      if (t == pivot_row) {
        x[t] = 0.0;
        continue;
      }
      const double v = x[t];
      x[t] = 0.0;
      if (v == 0.0) continue;  // ssnlint-ignore(SSN-L001)
      if (pinv[t] != kNone) {  // above the diagonal: U entry (permuted row)
        u_rows_[j].push_back(pinv[t]);
        u_vals_[j].push_back(v);
      } else {  // below: L entry, scaled by the pivot
        l_rows_[j].push_back(t);
        l_vals_[j].push_back(v / pivot);
      }
    }
  }
}

std::size_t SparseLu::factor_nonzeros() const {
  std::size_t nnz = n_;  // U diagonal
  for (std::size_t j = 0; j < n_; ++j) nnz += l_rows_[j].size() + u_rows_[j].size();
  return nnz;
}

Vector SparseLu::solve(const Vector& b) const {
  SSN_REQUIRE(b.size() == n_, "SparseLu::solve: size mismatch");
  if (singular_) {
    support::SolverDiagnostics diag;
    diag.where = "SparseLu::solve";
    throw support::SolverError(support::SolverErrorKind::kSingularMatrix,
                               "singular matrix", std::move(diag));
  }

  // Forward solve L y = P b (L unit-diagonal, stored column-wise with
  // original row indices; pinv maps them to solve order = their own pivot
  // position, which is strictly greater than the current column).
  Vector y(n_);
  for (std::size_t k = 0; k < n_; ++k) y[k] = b[perm_[k]];
  // Need pinv at solve time: reconstruct once (cheap, n entries).
  std::vector<std::size_t> pinv(n_);
  for (std::size_t k = 0; k < n_; ++k) pinv[perm_[k]] = k;
  for (std::size_t k = 0; k < n_; ++k) {
    const double yk = y[k];
    if (yk == 0.0) continue;  // ssnlint-ignore(SSN-L001)
    for (std::size_t q = 0; q < l_rows_[k].size(); ++q)
      y[pinv[l_rows_[k][q]]] -= l_vals_[k][q] * yk;
  }
  // Backward solve U x = y (U column-wise, rows already permuted).
  for (std::size_t jj = n_; jj-- > 0;) {
    y[jj] /= u_diag_[jj];
    const double yj = y[jj];
    if (yj == 0.0) continue;  // ssnlint-ignore(SSN-L001)
    for (std::size_t q = 0; q < u_rows_[jj].size(); ++q)
      y[u_rows_[jj][q]] -= u_vals_[jj][q] * yj;
  }
  return y;
}

// --- StampedMatrix -----------------------------------------------------------

void StampedMatrix::begin_pattern(std::size_t n) {
  n_ = n;
  discovering_ = true;
  missed_ = 0;
  triplets_.clear();
  row_ptr_.clear();
  col_idx_.clear();
  values_.clear();
}

void StampedMatrix::finalize_pattern() {
  SSN_REQUIRE(discovering_, "StampedMatrix::finalize_pattern: not discovering");
  std::sort(triplets_.begin(), triplets_.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.r != b.r ? a.r < b.r : a.c < b.c;
            });
  row_ptr_.assign(n_ + 1, 0);
  col_idx_.clear();
  values_.clear();
  std::size_t i = 0;
  for (std::size_t r = 0; r < n_; ++r) {
    row_ptr_[r] = col_idx_.size();
    while (i < triplets_.size() && triplets_[i].r == r) {
      const std::size_t c = triplets_[i].c;
      double v = 0.0;
      while (i < triplets_.size() && triplets_[i].r == r && triplets_[i].c == c)
        v += triplets_[i++].v;
      col_idx_.push_back(c);
      values_.push_back(v);
    }
  }
  row_ptr_[n_] = col_idx_.size();
  triplets_.clear();
  triplets_.shrink_to_fit();
  discovering_ = false;
  ++epoch_;
}

void StampedMatrix::reset_pattern() {
  n_ = 0;
  discovering_ = false;
  missed_ = 0;
  triplets_.clear();
  row_ptr_.clear();
  col_idx_.clear();
  values_.clear();
}

void StampedMatrix::clear() {
  SSN_REQUIRE(has_pattern(), "StampedMatrix::clear: no finalized pattern");
  std::fill(values_.begin(), values_.end(), 0.0);
  missed_ = 0;
}

void StampedMatrix::add(std::size_t r, std::size_t c, double v) {
  if (r >= n_ || c >= n_)
    throw std::out_of_range("StampedMatrix::add: index out of range");
  if (discovering_) {
    triplets_.push_back({r, c, v});
    return;
  }
  const std::size_t s = slot(r, c);
  if (s == kNone) {
    ++missed_;
    return;
  }
  values_[s] += v;
}

std::size_t StampedMatrix::slot(std::size_t r, std::size_t c) const {
  const auto first = col_idx_.begin() + long(row_ptr_[r]);
  const auto last = col_idx_.begin() + long(row_ptr_[r + 1]);
  const auto it = std::lower_bound(first, last, c);
  if (it == last || *it != c) return kNone;
  return std::size_t(it - col_idx_.begin());
}

double StampedMatrix::at(std::size_t r, std::size_t c) const {
  SSN_REQUIRE(has_pattern(), "StampedMatrix::at: no finalized pattern");
  const std::size_t s = slot(r, c);
  return s == kNone ? 0.0 : values_[s];
}

void StampedMatrix::mul_into(const Vector& x, Vector& y) const {
  SSN_REQUIRE(has_pattern(), "StampedMatrix::mul_into: no finalized pattern");
  if (x.size() != n_)
    throw std::invalid_argument("StampedMatrix::mul_into: size");
  y.resize(n_);
  for (std::size_t r = 0; r < n_; ++r) {
    double acc = 0.0;
    for (std::size_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i)
      acc += values_[i] * x[col_idx_[i]];
    y[r] = acc;
  }
}

Matrix StampedMatrix::to_dense() const {
  SSN_REQUIRE(has_pattern(), "StampedMatrix::to_dense: no finalized pattern");
  Matrix d(n_, n_);
  for (std::size_t r = 0; r < n_; ++r)
    for (std::size_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i)
      d(r, col_idx_[i]) = values_[i];
  return d;
}

// --- SparseFactor ------------------------------------------------------------

bool SparseFactor::factorize(const StampedMatrix& a) {
  SSN_REQUIRE(a.has_pattern(), "SparseFactor::factorize: pattern not finalized");
  n_ = a.size();
  epoch_ = a.epoch();
  singular_ = false;
  if (n_ == 0) return true;

  // Column-compressed view of A's pattern with a gather map (csc_src_) back
  // into the CSR values array, so refactorize never rebuilds the transpose.
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& vals = a.values();
  const std::size_t nnz = ci.size();
  csc_ptr_.assign(n_ + 1, 0);
  csc_row_.resize(nnz);
  csc_src_.resize(nnz);
  for (std::size_t i = 0; i < nnz; ++i) csc_ptr_[ci[i] + 1]++;
  for (std::size_t c = 0; c < n_; ++c) csc_ptr_[c + 1] += csc_ptr_[c];
  {
    std::vector<std::size_t> next(csc_ptr_.begin(), csc_ptr_.end() - 1);
    for (std::size_t r = 0; r < n_; ++r)
      for (std::size_t i = rp[r]; i < rp[r + 1]; ++i) {
        const std::size_t dst = next[ci[i]]++;
        csc_row_[dst] = r;
        csc_src_[dst] = i;
      }
  }

  pat_.assign(n_, {});
  l_rows_.assign(n_, {});
  l_vals_.assign(n_, {});
  u_rows_.assign(n_, {});
  u_vals_.assign(n_, {});
  u_diag_.assign(n_, 0.0);
  perm_.assign(n_, npos);
  pinv_.assign(n_, npos);
  work_.assign(n_, 0.0);

  std::vector<std::size_t> visited(n_, npos);
  std::vector<std::size_t> postorder, dfs_stack, dfs_edge;

  for (std::size_t j = 0; j < n_; ++j) {
    // Symbolic: reachability of A(:,j)'s rows through the columns of L,
    // collected in DFS postorder; reversed it is the topological order the
    // elimination needs. The reversed order is recorded in pat_[j] so the
    // numeric refactorization can replay it without redoing the DFS.
    postorder.clear();
    for (std::size_t p = csc_ptr_[j]; p < csc_ptr_[j + 1]; ++p) {
      const std::size_t root = csc_row_[p];
      if (visited[root] == j) continue;
      dfs_stack.assign(1, root);
      dfs_edge.assign(1, 0);
      visited[root] = j;
      while (!dfs_stack.empty()) {
        const std::size_t t = dfs_stack.back();
        const std::size_t k = pinv_[t];
        bool descended = false;
        if (k != npos) {
          std::size_t& e = dfs_edge.back();
          while (e < l_rows_[k].size()) {
            const std::size_t child = l_rows_[k][e++];
            if (visited[child] != j) {
              visited[child] = j;
              dfs_stack.push_back(child);
              dfs_edge.push_back(0);
              descended = true;
              break;
            }
          }
        }
        if (!descended && (k == npos || dfs_edge.back() >= l_rows_[k].size())) {
          postorder.push_back(t);
          dfs_stack.pop_back();
          dfs_edge.pop_back();
        }
      }
    }
    pat_[j].assign(postorder.rbegin(), postorder.rend());

    // Numeric: scatter A(:,j), eliminate in topological order.
    for (std::size_t p = csc_ptr_[j]; p < csc_ptr_[j + 1]; ++p)
      work_[csc_row_[p]] += vals[csc_src_[p]];
    for (std::size_t t : pat_[j]) {
      const std::size_t k = pinv_[t];
      if (k == npos) continue;  // not yet pivotal: nothing to eliminate with
      const double xt = work_[t];
      if (xt == 0.0) continue;  // ssnlint-ignore(SSN-L001)
      const auto& lr = l_rows_[k];
      const auto& lv = l_vals_[k];
      for (std::size_t q = 0; q < lr.size(); ++q) work_[lr[q]] -= lv[q] * xt;
    }

    // Pivot: largest magnitude among not-yet-pivotal rows.
    std::size_t pivot_row = npos;
    double pivot_mag = 0.0;
    for (std::size_t t : pat_[j]) {
      if (pinv_[t] != npos) continue;
      const double mag = std::fabs(work_[t]);
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = t;
      }
    }
    if (pivot_row == npos ||
        pivot_mag < std::numeric_limits<double>::min() * 16) {
      singular_ = true;
      for (std::size_t t : pat_[j]) work_[t] = 0.0;  // leave workspace clean
      return false;
    }
    const double pivot = work_[pivot_row];
    u_diag_[j] = pivot;
    perm_[j] = pivot_row;
    pinv_[pivot_row] = j;
    work_[pivot_row] = 0.0;

    // Store every pattern entry — exact zeros included, so the fill pattern
    // survives refactorization with different values — in pat_[j] order.
    for (std::size_t t : pat_[j]) {
      if (t == pivot_row) continue;
      const double v = work_[t];
      work_[t] = 0.0;
      if (pinv_[t] != npos && pinv_[t] < j) {
        u_rows_[j].push_back(pinv_[t]);
        u_vals_[j].push_back(v);
      } else {
        l_rows_[j].push_back(t);
        l_vals_[j].push_back(v / pivot);
      }
    }
  }
  maybe_corrupt_factors();
  return true;
}

bool SparseFactor::refactorize(const StampedMatrix& a) {
  if (n_ == 0 || a.size() != n_ || a.epoch() != epoch_ || perm_.empty() ||
      perm_[n_ - 1] == npos)
    return false;
  const auto& vals = a.values();
  // Until the replay completes, the stored factors are torn: refuse solves.
  singular_ = true;

  for (std::size_t j = 0; j < n_; ++j) {
    const std::vector<std::size_t>& pat = pat_[j];
    for (std::size_t p = csc_ptr_[j]; p < csc_ptr_[j + 1]; ++p)
      work_[csc_row_[p]] += vals[csc_src_[p]];
    for (std::size_t t : pat) {
      const std::size_t k = pinv_[t];
      if (k >= j) continue;  // pivotal only after column j in the old order
      const double xt = work_[t];
      if (xt == 0.0) continue;  // ssnlint-ignore(SSN-L001)
      const auto& lr = l_rows_[k];
      const auto& lv = l_vals_[k];
      for (std::size_t q = 0; q < lr.size(); ++q) work_[lr[q]] -= lv[q] * xt;
    }

    // Reused pivot sanity: it must stay comfortably away from zero relative
    // to the column it is meant to dominate; a degraded pivot means the old
    // pivot order no longer suits these values and the caller must run a
    // full factorize() to re-pivot.
    const std::size_t pivot_row = perm_[j];
    const double pivot = work_[pivot_row];
    double colmax = 0.0;
    for (std::size_t t : pat)
      if (pinv_[t] >= j) colmax = std::max(colmax, std::fabs(work_[t]));
    if (!(std::fabs(pivot) >= std::numeric_limits<double>::min() * 16) ||
        std::fabs(pivot) < 1e-3 * colmax) {
      for (std::size_t t : pat) work_[t] = 0.0;
      return false;
    }
    u_diag_[j] = pivot;
    work_[pivot_row] = 0.0;

    // Gather in the exact order factorize stored the pattern.
    std::size_t ui = 0, li = 0;
    for (std::size_t t : pat) {
      if (t == pivot_row) continue;
      const double v = work_[t];
      work_[t] = 0.0;
      if (pinv_[t] < j)
        u_vals_[j][ui++] = v;
      else
        l_vals_[j][li++] = v / pivot;
    }
  }
  singular_ = false;
  maybe_corrupt_factors();
  return true;
}

void SparseFactor::maybe_corrupt_factors() {
  if (!support::kFaultInjectionEnabled || n_ == 0) return;
  if (!SSN_FAULT_POINT(support::FaultKind::kFactorBitFlip)) return;
  // Flip mantissa bit 48 of the middle column's pivot: a ~2^-4 relative
  // perturbation — large enough that one refinement step cannot hide it
  // (the verify layer must emit a typed degradation), small enough that the
  // wrong answer would look entirely plausible if served unchecked.
  double& target = u_diag_[n_ / 2];
  std::uint64_t bits = 0;
  std::memcpy(&bits, &target, sizeof bits);
  bits ^= std::uint64_t(1) << 48;
  std::memcpy(&target, &bits, sizeof bits);
}

std::size_t SparseFactor::factor_nonzeros() const {
  std::size_t nnz = n_;  // U diagonal
  for (std::size_t j = 0; j < n_; ++j)
    nnz += l_rows_[j].size() + u_rows_[j].size();
  return nnz;
}

void SparseFactor::solve(const Vector& b, Vector& x) const {
  SSN_REQUIRE(b.size() == n_, "SparseFactor::solve: size mismatch");
  if (singular_) {
    support::SolverDiagnostics diag;
    diag.where = "SparseFactor::solve";
    throw support::SolverError(support::SolverErrorKind::kSingularMatrix,
                               "singular matrix", std::move(diag));
  }
  x.resize(n_);
  // Forward solve L y = P b in place (L unit-diagonal, column-wise with
  // original row indices; pinv_ maps them to solve order).
  for (std::size_t k = 0; k < n_; ++k) x[k] = b[perm_[k]];
  for (std::size_t k = 0; k < n_; ++k) {
    const double yk = x[k];
    if (yk == 0.0) continue;  // ssnlint-ignore(SSN-L001)
    const auto& lr = l_rows_[k];
    const auto& lv = l_vals_[k];
    for (std::size_t q = 0; q < lr.size(); ++q) x[pinv_[lr[q]]] -= lv[q] * yk;
  }
  // Backward solve U x = y (U column-wise, rows already permuted).
  for (std::size_t jj = n_; jj-- > 0;) {
    x[jj] /= u_diag_[jj];
    const double yj = x[jj];
    if (yj == 0.0) continue;  // ssnlint-ignore(SSN-L001)
    const auto& ur = u_rows_[jj];
    const auto& uv = u_vals_[jj];
    for (std::size_t q = 0; q < ur.size(); ++q) x[ur[q]] -= uv[q] * yj;
  }
}

void SparseFactor::solve_transpose(const Vector& b, Vector& x) const {
  SSN_REQUIRE(b.size() == n_, "SparseFactor::solve_transpose: size mismatch");
  if (singular_) {
    support::SolverDiagnostics diag;
    diag.where = "SparseFactor::solve_transpose";
    throw support::SolverError(support::SolverErrorKind::kSingularMatrix,
                               "singular matrix", std::move(diag));
  }
  x.resize(n_);
  // A^T = U^T L^T P. Step 1: U^T z = b, ascending — U's columns are indexed
  // by unknown j with row entries at pivot positions strictly below j, so
  // U^T is lower triangular in (unknown -> pivot-position) space:
  //   z_j = (b_j - sum_{k in U col j} u_kj z_k) / u_jj.
  std::vector<double> w(n_);
  for (std::size_t j = 0; j < n_; ++j) {
    double acc = b[j];
    const auto& ur = u_rows_[j];
    const auto& uv = u_vals_[j];
    for (std::size_t q = 0; q < ur.size(); ++q) acc -= uv[q] * w[ur[q]];
    w[j] = acc / u_diag_[j];
  }
  // Step 2: L^T w = z, descending — L's column k holds entries at pivot
  // positions pinv_[row] > k, so L^T row k subtracts already-solved
  // positions: w_k -= sum_q l_vals[q] * w[pinv_[l_rows[q]]].
  for (std::size_t k = n_; k-- > 0;) {
    double acc = w[k];
    const auto& lr = l_rows_[k];
    const auto& lv = l_vals_[k];
    for (std::size_t q = 0; q < lr.size(); ++q) acc -= lv[q] * w[pinv_[lr[q]]];
    w[k] = acc;
  }
  // Step 3: x = P^T w, i.e. x[perm_[k]] = w[k].
  for (std::size_t k = 0; k < n_; ++k) x[perm_[k]] = w[k];
}

void SparseFactor::refine(const StampedMatrix& a, const Vector& b, Vector& x,
                          Vector& r, Vector& d) const {
  SSN_REQUIRE(b.size() == n_ && x.size() == n_,
              "SparseFactor::refine: size mismatch");
  a.mul_into(x, r);
  for (std::size_t i = 0; i < n_; ++i) r[i] = b[i] - r[i];
  solve(r, d);
  for (std::size_t i = 0; i < n_; ++i) x[i] += d[i];
}

}  // namespace ssnkit::numeric
