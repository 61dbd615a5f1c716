// Compressed-sparse-column matrix and a left-looking (Gilbert-Peierls) LU
// factorization with partial pivoting.
//
// Circuit matrices from MNA are extremely sparse (a handful of entries per
// row); this solver keeps the factorization cost proportional to the number
// of nonzeros in the factors rather than n^3. It is validated against the
// dense solver in the test suite and is used by the transient engine when a
// circuit exceeds the dense-size threshold.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ppd::linalg {

/// Triplet-form builder; duplicate (row, col) entries are summed, matching
/// the semantics MNA stamping needs.
class SparseBuilder {
 public:
  SparseBuilder(std::size_t rows, std::size_t cols);

  void add(std::size_t row, std::size_t col, double value);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t entries() const { return row_.size(); }

  friend class SparseMatrix;

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::size_t> row_;
  std::vector<std::size_t> col_;
  std::vector<double> val_;
};

/// Immutable CSC matrix.
class SparseMatrix {
 public:
  explicit SparseMatrix(const SparseBuilder& b);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t nonzeros() const { return idx_.size(); }

  /// y = A * x.
  [[nodiscard]] std::vector<double> multiply(const std::vector<double>& x) const;

  /// Entry lookup (O(log nnz in column)); absent entries read as 0.
  [[nodiscard]] double at(std::size_t row, std::size_t col) const;

  // CSC internals, exposed for the factorization.
  [[nodiscard]] const std::vector<std::size_t>& col_ptr() const { return ptr_; }
  [[nodiscard]] const std::vector<std::size_t>& row_idx() const { return idx_; }
  [[nodiscard]] const std::vector<double>& values() const { return val_; }

  /// Mutable value access for structure-frozen reassembly: callers that
  /// keep the sparsity pattern fixed (ppd::spice frozen MNA) rewrite the
  /// numeric values in place instead of rebuilding the matrix.
  [[nodiscard]] std::vector<double>& mutable_values() { return val_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> ptr_;  // size cols + 1
  std::vector<std::size_t> idx_;  // row indices, sorted within a column
  std::vector<double> val_;
};

/// Sparse LU, left-looking with partial pivoting.
/// Throws NumericalError when the matrix is numerically singular.
///
/// Factor-once/solve-many: factor() records the per-column update pattern and
/// pivot order alongside the factors, so a later matrix with the SAME
/// sparsity pattern can be refactorized numerically in place with
/// refactor() — no symbolic DFS, no allocation. refactor() verifies at every
/// column that the frozen pivot is still the one partial pivoting would
/// choose and that no factor entry appeared or vanished; on any mismatch it
/// returns false (the caller falls back to factor()), which makes a
/// successful refactor bit-identical to a from-scratch factorization.
class SparseLu {
 public:
  SparseLu() = default;
  explicit SparseLu(const SparseMatrix& a, double pivot_tol = 1e-13);

  /// Full (symbolic + numeric) factorization; reuses internal buffers.
  void factor(const SparseMatrix& a, double pivot_tol = 1e-13);

  /// Numeric-only refactorization of a matrix with the same sparsity pattern
  /// as the last factor() call. Returns false when the frozen structure or
  /// pivot order no longer matches (caller should factor() from scratch).
  [[nodiscard]] bool refactor(const SparseMatrix& a, double pivot_tol = 1e-13);

  [[nodiscard]] bool factored() const { return n_ > 0; }

  [[nodiscard]] std::vector<double> solve(const std::vector<double>& b) const;
  /// solve() into a caller-owned vector (resized; must not alias `b`).
  void solve_into(const std::vector<double>& b, std::vector<double>& x) const;

  [[nodiscard]] std::size_t order() const { return n_; }
  [[nodiscard]] std::size_t factor_nonzeros() const {
    return l_idx_.size() + u_idx_.size();
  }

 private:
  std::size_t n_ = 0;
  // L: unit diagonal not stored; U: diagonal stored last in each column.
  // Row indices are 32-bit (factor() checks the order): a frozen MNA keeps
  // its factorization for a whole transient.
  std::vector<std::size_t> l_ptr_;
  std::vector<std::uint32_t> l_idx_;
  std::vector<double> l_val_;
  std::vector<std::size_t> u_ptr_;
  std::vector<std::uint32_t> u_idx_;
  std::vector<double> u_val_;
  std::vector<std::size_t> pinv_;  // original row -> pivot position
  // Frozen structure for refactor(): per-column x-pattern in the traversal
  // order factor() used (updates run over it back-to-front), plus the
  // matrix nonzero count it was recorded against.
  std::vector<std::size_t> pat_ptr_;
  std::vector<std::uint32_t> pat_rows_;
  std::size_t a_nnz_ = 0;
  std::vector<double> x_work_;  // refactor scratch (original-row indexed)
};

}  // namespace ppd::linalg
