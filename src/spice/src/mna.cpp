#include "ppd/spice/mna.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include "ppd/util/error.hpp"

namespace ppd::spice {

namespace {

[[nodiscard]] bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

constexpr std::size_t kMaxIndex = std::numeric_limits<std::uint32_t>::max();

}  // namespace

MnaSystem::MnaSystem(std::size_t unknowns, bool use_sparse)
    : n_(unknowns), use_sparse_(use_sparse), rhs_(unknowns, 0.0) {
  PPD_REQUIRE(n_ < kMaxIndex, "MNA system too large for 32-bit indices");
  if (!use_sparse_) dense_ = linalg::DenseMatrix(n_, n_);
}

void MnaSystem::reset() {
  if (freeze_ == Freeze::kFrozen) {
    // Keep the learned structure and its values; replay from the top. The
    // matrix image and rhs are rebuilt from the slot arrays at solve time.
    trip_cursor_ = 0;
    rhs_cursor_ = 0;
    partial_ = false;
    return;
  }
  trip_row_.clear();
  trip_col_.clear();
  trip_val_.clear();
  if (!use_sparse_) dense_.set_zero();
  if (freeze_ == Freeze::kLearning) {
    rhs_row_.clear();
    rhs_val_.clear();
  }
  std::fill(rhs_.begin(), rhs_.end(), 0.0);
}

void MnaSystem::note_partial() {
  PPD_REQUIRE(freeze_ == Freeze::kFrozen,
              "note_partial() requires a replay-ready MNA");
  partial_ = true;
}

void MnaSystem::seek(const Mark& m) {
  PPD_REQUIRE(freeze_ == Freeze::kFrozen, "seek() requires a replay-ready MNA");
  PPD_REQUIRE(m.trip <= trip_row_.size() && m.rhs <= rhs_row_.size(),
              "seek() mark out of range");
  trip_cursor_ = m.trip;
  rhs_cursor_ = m.rhs;
  partial_ = true;
}

void MnaSystem::add(MnaIndex row, MnaIndex col, double value) {
  if (row < 0 || col < 0) return;
  const auto r = static_cast<std::size_t>(row);
  const auto c = static_cast<std::size_t>(col);
  PPD_REQUIRE(r < n_ && c < n_, "MNA index out of range");
  if (freeze_ == Freeze::kFrozen) {
    PPD_REQUIRE(trip_cursor_ < trip_row_.size() &&
                    trip_row_[trip_cursor_] == r && trip_col_[trip_cursor_] == c,
                "frozen MNA assemble diverged from the learned structure");
    const std::size_t k = trip_cursor_++;
    double& slot = trip_val_[k];
    if (!bits_equal(slot, value)) {
      slot = value;
      mat_changed_ = true;
      if (!trip_slot_.empty()) {
        const std::uint32_t s = trip_slot_[k];
        if (!slot_dirty_[s]) {
          slot_dirty_[s] = 1;
          dirty_slots_.push_back(s);
        }
      }
    }
    return;
  }
  if (use_sparse_ || freeze_ == Freeze::kLearning) {
    trip_row_.push_back(static_cast<std::uint32_t>(r));
    trip_col_.push_back(static_cast<std::uint32_t>(c));
    trip_val_.push_back(value);
  }
  if (!use_sparse_) dense_(r, c) += value;
}

void MnaSystem::add_rhs(MnaIndex row, double value) {
  if (row < 0) return;
  const auto r = static_cast<std::size_t>(row);
  PPD_REQUIRE(r < n_, "MNA rhs index out of range");
  if (freeze_ == Freeze::kFrozen) {
    PPD_REQUIRE(rhs_cursor_ < rhs_row_.size() && rhs_row_[rhs_cursor_] == r,
                "frozen MNA rhs assemble diverged from the learned structure");
    double& slot = rhs_val_[rhs_cursor_++];
    if (!bits_equal(slot, value)) {
      slot = value;
      rhs_changed_ = true;
      if (!rhs_ptr_.empty() && !rhs_row_dirty_[r]) {
        rhs_row_dirty_[r] = 1;
        dirty_rhs_rows_.push_back(static_cast<std::uint32_t>(r));
      }
    }
    return;
  }
  if (freeze_ == Freeze::kLearning) {
    rhs_row_.push_back(static_cast<std::uint32_t>(r));
    rhs_val_.push_back(value);
  }
  rhs_[r] += value;
}

std::vector<double> MnaSystem::solve() const {
  if (use_sparse_) {
    linalg::SparseBuilder b(n_, n_);
    for (std::size_t k = 0; k < trip_row_.size(); ++k)
      b.add(trip_row_[k], trip_col_[k], trip_val_[k]);
    const linalg::SparseMatrix a(b);
    const linalg::SparseLu lu(a);
    return lu.solve(rhs_);
  }
  const linalg::DenseLu lu(dense_);
  return lu.solve(rhs_);
}

void MnaSystem::freeze_structure() {
  PPD_REQUIRE(freeze_ == Freeze::kOff, "structure already frozen");
  freeze_ = Freeze::kLearning;
}

void MnaSystem::learn_sparse_structure() {
  // Replicate SparseMatrix's construction — counting sort into column
  // buckets, an in-column sort by row, duplicates merged in sorted order —
  // but record, for every triplet, the CSC slot it lands in and the order it
  // is accumulated, so frozen assembles can scatter values straight into the
  // CSC image with bitwise-identical sums.
  linalg::SparseBuilder b(n_, n_);
  for (std::size_t k = 0; k < trip_row_.size(); ++k)
    b.add(trip_row_[k], trip_col_[k], trip_val_[k]);
  a_ = std::make_unique<linalg::SparseMatrix>(b);

  const std::size_t nt = trip_row_.size();
  PPD_REQUIRE(nt < kMaxIndex, "MNA stamp sequence too long for 32-bit indices");
  std::vector<std::uint32_t> count(n_ + 1, 0);
  for (std::uint32_t c : trip_col_) ++count[c + 1];
  for (std::size_t c = 0; c < n_; ++c) count[c + 1] += count[c];

  std::vector<std::uint32_t> rows(nt), src(nt);
  std::vector<std::uint32_t> cursor(count.begin(), count.end() - 1);
  for (std::size_t k = 0; k < nt; ++k) {
    const std::uint32_t pos = cursor[trip_col_[k]]++;
    rows[pos] = trip_row_[k];
    src[pos] = static_cast<std::uint32_t>(k);
  }

  // Slots open in increasing order, so the contributions to one slot are
  // contiguous in accumulation order: slot_src_ lists triplets in that
  // order and slot_ptr_ delimits each slot's run — a slot -> triplets CSR
  // whose within-slot order IS the accumulation order. trip_slot_ is its
  // inverse, used by add() to mark dirty slots.
  trip_slot_.assign(nt, 0);
  slot_src_.clear();
  slot_src_.reserve(nt);
  slot_ptr_.clear();
  std::vector<std::uint32_t> order;
  for (std::size_t c = 0; c < n_; ++c) {
    order.resize(count[c + 1] - count[c]);
    for (std::size_t i = 0; i < order.size(); ++i)
      order[i] = count[c] + static_cast<std::uint32_t>(i);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b2) { return rows[a] < rows[b2]; });
    for (std::size_t i = 0; i < order.size(); ++i) {
      const std::uint32_t pos = order[i];
      if (i == 0 || rows[pos] != rows[order[i - 1]])  // opens a new CSC entry
        slot_ptr_.push_back(static_cast<std::uint32_t>(slot_src_.size()));
      trip_slot_[src[pos]] = static_cast<std::uint32_t>(slot_ptr_.size() - 1);
      slot_src_.push_back(src[pos]);
    }
  }
  const std::size_t slots = slot_ptr_.size();
  slot_ptr_.push_back(static_cast<std::uint32_t>(nt));
  PPD_REQUIRE(slots == a_->nonzeros(), "scatter program out of sync with CSC");
  slot_dirty_.assign(slots, 0);
  dirty_slots_.clear();
}

void MnaSystem::learn_rhs_rows() {
  // Stable counting sort of the rhs add sequence by row: per-row order is
  // ascending sequence order, which is the order the learning assemble
  // accumulated each rhs_[r] in — so a per-row rebuild sums bitwise the same.
  const std::size_t nr = rhs_row_.size();
  PPD_REQUIRE(nr < kMaxIndex, "MNA rhs sequence too long for 32-bit indices");
  rhs_ptr_.assign(n_ + 1, 0);
  for (std::uint32_t r : rhs_row_) ++rhs_ptr_[r + 1];
  for (std::size_t r = 0; r < n_; ++r) rhs_ptr_[r + 1] += rhs_ptr_[r];
  rhs_src_.resize(nr);
  std::vector<std::uint32_t> cursor(rhs_ptr_.begin(), rhs_ptr_.end() - 1);
  for (std::size_t k = 0; k < nr; ++k)
    rhs_src_[cursor[rhs_row_[k]]++] = static_cast<std::uint32_t>(k);
  rhs_row_dirty_.assign(n_, 0);
  dirty_rhs_rows_.clear();
}

void MnaSystem::learn_dense_structure() {
  // Direct += assembly accumulated in add order; scattering the recorded
  // triplets in that same order reproduces every cell sum bitwise.
  PPD_REQUIRE(n_ * n_ < kMaxIndex, "dense MNA too large for 32-bit slots");
  dense_slot_.resize(trip_row_.size());
  for (std::size_t k = 0; k < trip_row_.size(); ++k)  // column-major offset
    dense_slot_[k] = static_cast<std::uint32_t>(trip_col_[k] * n_ + trip_row_[k]);
}

void MnaSystem::solve_into(std::vector<double>& x) {
  if (freeze_ == Freeze::kOff) {
    x = solve();
    return;
  }
  bool refactor = true;
  if (freeze_ == Freeze::kLearning) {
    // The learning assemble stamped dense_/rhs_ directly while recording the
    // add sequences; factor from those values and arm replay mode.
    if (use_sparse_)
      learn_sparse_structure();
    else
      learn_dense_structure();
    learn_rhs_rows();
    freeze_ = Freeze::kFrozen;
    trip_cursor_ = trip_row_.size();
    rhs_cursor_ = rhs_row_.size();
  } else {
    PPD_REQUIRE(partial_ || (trip_cursor_ == trip_row_.size() &&
                             rhs_cursor_ == rhs_row_.size()),
                "frozen MNA assemble is incomplete");
    partial_ = false;
    // No slot changed bits since the last solve: this is bitwise the same
    // system, so the last solution IS this solve's result.
    if (!mat_changed_ && !rhs_changed_ && solve_cached_) {
      ++stats_.cached;
      x = cached_x_;
      return;
    }
    if (rhs_changed_) {
      if (!rhs_ptr_.empty()) {
        // Only rows whose slot values changed bits need re-accumulation;
        // every other rhs_[r] already holds its (bitwise) rebuild sum.
        for (std::uint32_t r : dirty_rhs_rows_) {
          double acc = 0.0;
          for (std::uint32_t k = rhs_ptr_[r]; k < rhs_ptr_[r + 1]; ++k)
            acc += rhs_val_[rhs_src_[k]];
          rhs_[r] = acc;
          rhs_row_dirty_[r] = 0;
        }
        dirty_rhs_rows_.clear();
      } else {
        std::fill(rhs_.begin(), rhs_.end(), 0.0);
        for (std::size_t k = 0; k < rhs_row_.size(); ++k)
          rhs_[rhs_row_[k]] += rhs_val_[k];
      }
    }
    if (mat_changed_ || !factor_ok_) {
      if (use_sparse_) {
        // The CSC image persists between solves (the factorization reads it,
        // never writes it), so only dirty slots re-accumulate.
        auto& av = a_->mutable_values();
        for (std::uint32_t s : dirty_slots_) {
          double acc = 0.0;
          for (std::uint32_t k = slot_ptr_[s]; k < slot_ptr_[s + 1]; ++k)
            acc += trip_val_[slot_src_[k]];
          av[s] = acc;
          slot_dirty_[s] = 0;
        }
        dirty_slots_.clear();
      } else {
        dense_.set_zero();
        double* d = dense_.data();
        for (std::size_t k = 0; k < dense_slot_.size(); ++k)
          d[dense_slot_[k]] += trip_val_[k];
      }
    } else {
      // An unchanged matrix re-solves against the factorization already in
      // dense_/slu_ — the factors of bitwise these values.
      refactor = false;
    }
  }
  if (refactor) {
    ++stats_.refactored;
    factor_ok_ = false;
    solve_cached_ = false;
    if (use_sparse_) {
      if (!slu_.factored()) {
        slu_.factor(*a_);
      } else if (!slu_.refactor(*a_)) {
        ++stats_.refactor_fallbacks;
        slu_.factor(*a_);
      }
    } else {
      // In-place factorization consumes dense_; the next solve rebuilds it
      // from the recorded slots.
      dlw_.factor(dense_);
    }
    factor_ok_ = true;
  }
  if (!refactor) ++stats_.rhs_only;
  if (use_sparse_)
    slu_.solve_into(rhs_, x);
  else
    dlw_.solve_into(rhs_, x);
  cached_x_ = x;
  solve_cached_ = true;
  mat_changed_ = false;
  rhs_changed_ = false;
}

}  // namespace ppd::spice
