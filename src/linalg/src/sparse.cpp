#include "ppd/linalg/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ppd/util/error.hpp"

namespace ppd::linalg {

namespace {
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
}

SparseBuilder::SparseBuilder(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols) {}

void SparseBuilder::add(std::size_t row, std::size_t col, double value) {
  PPD_REQUIRE(row < rows_ && col < cols_, "sparse entry out of range");
  row_.push_back(row);
  col_.push_back(col);
  val_.push_back(value);
}

SparseMatrix::SparseMatrix(const SparseBuilder& b)
    : rows_(b.rows_), cols_(b.cols_) {
  // Count entries per column, then bucket, then sort+compress each column
  // summing duplicates.
  std::vector<std::size_t> count(cols_ + 1, 0);
  for (std::size_t c : b.col_) ++count[c + 1];
  for (std::size_t c = 0; c < cols_; ++c) count[c + 1] += count[c];

  std::vector<std::size_t> rows(b.entries());
  std::vector<double> vals(b.entries());
  std::vector<std::size_t> cursor(count.begin(), count.end() - 1);
  for (std::size_t k = 0; k < b.entries(); ++k) {
    const std::size_t pos = cursor[b.col_[k]]++;
    rows[pos] = b.row_[k];
    vals[pos] = b.val_[k];
  }

  ptr_.assign(cols_ + 1, 0);
  for (std::size_t c = 0; c < cols_; ++c) {
    const std::size_t lo = count[c];
    const std::size_t hi = count[c + 1];
    // Sort this column's slice by row index.
    std::vector<std::size_t> order(hi - lo);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = lo + i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b2) { return rows[a] < rows[b2]; });
    for (std::size_t i = 0; i < order.size(); ++i) {
      const std::size_t src = order[i];
      if (!idx_.empty() && ptr_[c] < idx_.size() && idx_.back() == rows[src] &&
          idx_.size() > ptr_[c]) {
        val_.back() += vals[src];
      } else {
        idx_.push_back(rows[src]);
        val_.push_back(vals[src]);
      }
    }
    ptr_[c + 1] = idx_.size();
  }
}

std::vector<double> SparseMatrix::multiply(const std::vector<double>& x) const {
  PPD_REQUIRE(x.size() == cols_, "dimension mismatch in multiply");
  std::vector<double> y(rows_, 0.0);
  for (std::size_t c = 0; c < cols_; ++c) {
    const double xc = x[c];
    if (xc == 0.0) continue;
    for (std::size_t k = ptr_[c]; k < ptr_[c + 1]; ++k) y[idx_[k]] += val_[k] * xc;
  }
  return y;
}

double SparseMatrix::at(std::size_t row, std::size_t col) const {
  PPD_REQUIRE(row < rows_ && col < cols_, "sparse index out of range");
  const auto first = idx_.begin() + static_cast<std::ptrdiff_t>(ptr_[col]);
  const auto last = idx_.begin() + static_cast<std::ptrdiff_t>(ptr_[col + 1]);
  const auto it = std::lower_bound(first, last, row);
  if (it == last || *it != row) return 0.0;
  return val_[static_cast<std::size_t>(it - idx_.begin())];
}

SparseLu::SparseLu(const SparseMatrix& a, double pivot_tol) {
  factor(a, pivot_tol);
}

void SparseLu::factor(const SparseMatrix& a, double pivot_tol) {
  PPD_REQUIRE(a.rows() == a.cols(), "LU needs a square matrix");
  PPD_REQUIRE(a.rows() < std::numeric_limits<std::uint32_t>::max(),
              "SparseLu: matrix too large for 32-bit indices");
  n_ = a.rows();
  a_nnz_ = a.nonzeros();
  pinv_.assign(n_, kNone);

  l_ptr_.assign(n_ + 1, 0);
  u_ptr_.assign(n_ + 1, 0);
  l_idx_.clear();
  l_val_.clear();
  u_idx_.clear();
  u_val_.clear();
  pat_ptr_.assign(n_ + 1, 0);
  pat_rows_.clear();

  // Workspaces for the per-column sparse triangular solve.
  std::vector<double>& x = x_work_;
  x.assign(n_, 0.0);
  std::vector<char> mark(n_, 0);
  std::vector<std::size_t> pattern;        // nonzero rows of x (original indices)
  std::vector<std::size_t> dfs_stack, dfs_pos;

  const auto& ap = a.col_ptr();
  const auto& ai = a.row_idx();
  const auto& av = a.values();

  for (std::size_t j = 0; j < n_; ++j) {
    // --- Symbolic step: pattern of x = L \ A(:, j) via DFS over L. ---
    // Edges run from a pivotal row r to the rows its L column updates, so a
    // post-order DFS appends r after everything it feeds; traversing the
    // resulting `pattern` back-to-front gives a valid update order.
    pattern.clear();
    for (std::size_t k = ap[j]; k < ap[j + 1]; ++k) {
      const std::size_t row = ai[k];
      if (mark[row]) continue;
      dfs_stack.assign(1, row);
      dfs_pos.assign(1, 0);
      mark[row] = 1;
      while (!dfs_stack.empty()) {
        const std::size_t r = dfs_stack.back();
        const std::size_t piv = pinv_[r];
        const std::size_t degree = piv == kNone ? 0 : l_ptr_[piv + 1] - l_ptr_[piv];
        if (dfs_pos.back() < degree) {
          const std::size_t child = l_idx_[l_ptr_[piv] + dfs_pos.back()];
          ++dfs_pos.back();
          if (!mark[child]) {
            mark[child] = 1;
            dfs_stack.push_back(child);
            dfs_pos.push_back(0);
          }
        } else {
          pattern.push_back(r);
          dfs_stack.pop_back();
          dfs_pos.pop_back();
        }
      }
    }

    // --- Numeric step: sparse solve. ---
    for (std::size_t r : pattern) x[r] = 0.0;
    for (std::size_t k = ap[j]; k < ap[j + 1]; ++k) x[ai[k]] = av[k];

    for (std::size_t t = pattern.size(); t-- > 0;) {
      const std::size_t r = pattern[t];
      const std::size_t piv = pinv_[r];
      if (piv == kNone) continue;  // not yet pivotal; below the diagonal
      const double xr = x[r];
      if (xr == 0.0) continue;
      for (std::size_t k = l_ptr_[piv]; k < l_ptr_[piv + 1]; ++k)
        x[l_idx_[k]] -= l_val_[k] * xr;
    }

    // --- Pivot selection among rows that are not yet pivotal. ---
    std::size_t best = kNone;
    double best_mag = 0.0;
    for (std::size_t r : pattern) {
      if (pinv_[r] != kNone) continue;
      const double mag = std::abs(x[r]);
      if (mag > best_mag) {
        best_mag = mag;
        best = r;
      }
    }
    if (best == kNone || !(best_mag > pivot_tol)) {
      throw NumericalError("SparseLu: matrix is numerically singular at column " +
                           std::to_string(j));
    }
    const double pivot = x[best];
    pinv_[best] = j;

    // --- Scatter into U (rows already pivotal) and L (rest / pivot). ---
    // U column j: entries at pivot positions < j, plus the pivot itself.
    for (std::size_t r : pattern) {
      if (pinv_[r] != kNone && pinv_[r] < j && x[r] != 0.0) {
        u_idx_.push_back(static_cast<std::uint32_t>(pinv_[r]));
        u_val_.push_back(x[r]);
      }
    }
    u_idx_.push_back(static_cast<std::uint32_t>(j));
    u_val_.push_back(pivot);
    u_ptr_[j + 1] = u_idx_.size();

    for (std::size_t r : pattern) {
      if (pinv_[r] == kNone && x[r] != 0.0) {
        // Original row index; remapped on solve.
        l_idx_.push_back(static_cast<std::uint32_t>(r));
        l_val_.push_back(x[r] / pivot);
      }
      mark[r] = 0;
      x[r] = 0.0;
    }
    l_ptr_[j + 1] = l_idx_.size();

    // Freeze this column's traversal order for refactor().
    for (std::size_t r : pattern)
      pat_rows_.push_back(static_cast<std::uint32_t>(r));
    pat_ptr_[j + 1] = pat_rows_.size();
  }
}

bool SparseLu::refactor(const SparseMatrix& a, double pivot_tol) {
  // Precondition: same sparsity pattern as the matrix passed to factor().
  // (Cheap guards only; the per-column walk below catches every numeric
  // divergence from the frozen structure and bails to a full factor.)
  if (n_ == 0 || a.rows() != n_ || a.cols() != n_ || a.nonzeros() != a_nnz_)
    return false;

  const auto& ap = a.col_ptr();
  const auto& ai = a.row_idx();
  const auto& av = a.values();
  std::vector<double>& x = x_work_;  // zeroed outside the pattern (invariant)

  for (std::size_t j = 0; j < n_; ++j) {
    const std::size_t pat_lo = pat_ptr_[j];
    const std::size_t pat_hi = pat_ptr_[j + 1];

    // Scatter A(:, j); its rows are a subset of the frozen pattern.
    for (std::size_t t = pat_lo; t < pat_hi; ++t) x[pat_rows_[t]] = 0.0;
    for (std::size_t k = ap[j]; k < ap[j + 1]; ++k) x[ai[k]] = av[k];

    // Numeric update in the exact traversal order factor() used. Rows with
    // pivot position >= j were "not yet pivotal" when this column was first
    // factored.
    for (std::size_t t = pat_hi; t-- > pat_lo;) {
      const std::size_t r = pat_rows_[t];
      const std::size_t piv = pinv_[r];
      if (piv >= j) continue;
      const double xr = x[r];
      if (xr == 0.0) continue;
      for (std::size_t k = l_ptr_[piv]; k < l_ptr_[piv + 1]; ++k)
        x[l_idx_[k]] -= l_val_[k] * xr;
    }

    // Verify the frozen pivot is still the partial-pivoting choice (same
    // scan order and strict-greater tie-break as factor()).
    std::size_t best = kNone;
    double best_mag = 0.0;
    for (std::size_t t = pat_lo; t < pat_hi; ++t) {
      const std::size_t r = pat_rows_[t];
      if (pinv_[r] < j) continue;
      const double mag = std::abs(x[r]);
      if (mag > best_mag) {
        best_mag = mag;
        best = r;
      }
    }
    bool ok = best != kNone && pinv_[best] == j && best_mag > pivot_tol;

    // Rewrite U then L values in place, verifying the frozen value-pattern
    // (entries that were dropped as exact zeros must stay zero and vice
    // versa — else structure changed and results would not match a from-
    // scratch factorization).
    std::size_t uk = u_ptr_[j];
    std::size_t lk = l_ptr_[j];
    const double pivot = ok ? x[best] : 1.0;
    if (ok) {
      for (std::size_t t = pat_lo; t < pat_hi && ok; ++t) {
        const std::size_t r = pat_rows_[t];
        if (pinv_[r] < j) {
          if (x[r] != 0.0) {
            if (uk + 1 >= u_ptr_[j + 1] || u_idx_[uk] != pinv_[r]) ok = false;
            else u_val_[uk++] = x[r];
          }
        } else if (r != best) {
          if (x[r] != 0.0) {
            if (lk >= l_ptr_[j + 1] || l_idx_[lk] != r) ok = false;
            else l_val_[lk++] = x[r] / pivot;
          }
        }
      }
      // The diagonal is stored last in each U column; every frozen slot must
      // have been refilled.
      ok = ok && uk == u_ptr_[j + 1] - 1 && lk == l_ptr_[j + 1];
      if (ok) u_val_[uk] = pivot;
    }

    // Restore the x == 0 invariant before returning or moving on.
    for (std::size_t t = pat_lo; t < pat_hi; ++t) x[pat_rows_[t]] = 0.0;
    if (!ok) return false;
  }
  return true;
}

std::vector<double> SparseLu::solve(const std::vector<double>& b) const {
  std::vector<double> y;
  solve_into(b, y);
  return y;
}

void SparseLu::solve_into(const std::vector<double>& b,
                          std::vector<double>& y) const {
  PPD_REQUIRE(b.size() == n_, "dimension mismatch in solve");
  PPD_REQUIRE(&b != &y, "b and x must be distinct");
  // Permute b into pivot order: y[pinv_[r]] = b[r].
  y.resize(n_);
  for (std::size_t r = 0; r < n_; ++r) y[pinv_[r]] = b[r];

  // Forward solve with unit-lower L (columns indexed by pivot position,
  // row entries stored as original rows -> map through pinv_).
  for (std::size_t j = 0; j < n_; ++j) {
    const double yj = y[j];
    if (yj == 0.0) continue;
    for (std::size_t k = l_ptr_[j]; k < l_ptr_[j + 1]; ++k)
      y[pinv_[l_idx_[k]]] -= l_val_[k] * yj;
  }

  // Backward solve with U (diagonal stored last in each column).
  for (std::size_t j = n_; j-- > 0;) {
    const std::size_t last = u_ptr_[j + 1] - 1;  // diagonal entry
    y[j] /= u_val_[last];
    const double yj = y[j];
    if (yj == 0.0) continue;
    for (std::size_t k = u_ptr_[j]; k < last; ++k) y[u_idx_[k]] -= u_val_[k] * yj;
  }
}

}  // namespace ppd::linalg
