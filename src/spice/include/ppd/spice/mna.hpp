// Modified-nodal-analysis system assembly. Devices stamp conductances,
// sources and auxiliary (branch-current) equations through this interface;
// the analysis engine then factorizes with the dense or sparse solver.
//
// Two operating modes:
//  - Default: every solve() rebuilds the solver state from scratch (sparse:
//    triplets -> CSC -> symbolic + numeric LU; dense: copy + factor).
//  - Structure-frozen (freeze_structure()): the first assemble/solve_into
//    cycle learns the stamping structure — the exact (row, col) matrix add
//    sequence, the rhs add sequence, the triplet -> CSC slot mapping with
//    its duplicate-accumulation order, and the LU elimination ordering.
//    Every later assemble writes numeric values into the learned slots and
//    solve_into() scatters them (in the recorded accumulation order, so sums
//    are bitwise those of a from-scratch assemble) and refactorizes in place
//    into a caller-owned buffer: no triplet rebuild, no symbolic analysis,
//    no per-iteration allocation. Results are bit-identical to the default
//    mode (the sparse refactorization verifies its frozen pivot order and
//    falls back to a full factor when values shift it).
//
// Because frozen slot values persist between assembles, a frozen assemble
// may also be PARTIAL: seek() repositions the replay cursors to a recorded
// mark() and only the devices whose values actually changed rewrite their
// slots — everything else replays verbatim. The transient engine uses this
// to restamp only nonlinear devices on Newton iterations >= 2 and only
// time-varying devices on new time steps (see engine_detail.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "ppd/linalg/dense.hpp"
#include "ppd/linalg/sparse.hpp"

namespace ppd::spice {

/// MNA row/column index: 0..n_nodes-1 are node voltages (ground excluded),
/// then auxiliary rows. A negative index denotes ground and is dropped.
using MnaIndex = int;
constexpr MnaIndex kGroundIndex = -1;

class MnaSystem {
 public:
  /// `use_sparse` selects the backing solver.
  MnaSystem(std::size_t unknowns, bool use_sparse);

  void reset();

  /// A(row, col) += value; ground indices are ignored.
  void add(MnaIndex row, MnaIndex col, double value);

  /// rhs(row) += value; ground ignored.
  void add_rhs(MnaIndex row, double value);

  /// Factorize and solve. Throws NumericalError on singularity.
  [[nodiscard]] std::vector<double> solve() const;

  /// Enter structure-frozen mode: the next assemble + solve_into() learns
  /// the stamping structure, later assembles must replay the same add
  /// sequence (enforced). Call once, before the first assemble.
  void freeze_structure();
  [[nodiscard]] bool frozen() const { return freeze_ != Freeze::kOff; }
  /// True once the learning assemble + solve has completed and later
  /// assembles replay (fully or partially) into the learned slots.
  [[nodiscard]] bool replay_ready() const { return freeze_ == Freeze::kFrozen; }

  /// Replay cursor positions — a point in the learned add sequences.
  struct Mark {
    std::size_t trip = 0;
    std::size_t rhs = 0;
  };
  /// Current position in the add sequences (valid during the learning
  /// assemble, where it delimits per-device slot windows for later partial
  /// replays). While learning, adds append, so the position is the sequence
  /// length; once replay-ready it is the replay cursor.
  [[nodiscard]] Mark mark() const {
    if (freeze_ == Freeze::kFrozen) return {trip_cursor_, rhs_cursor_};
    return {trip_row_.size(), rhs_row_.size()};
  }
  /// Reposition the replay cursors to a recorded mark and flag this
  /// assemble as partial: slots not rewritten before solve_into() keep
  /// their previous values. replay_ready() only.
  void seek(const Mark& m);

  /// Flag the in-progress assemble as partial without repositioning the
  /// cursors — for selective walks that may visit zero devices (an empty
  /// walk is a valid partial assemble: every slot replays). replay_ready()
  /// only.
  void note_partial();

  /// Factorize and solve into `x` (resized). Bit-identical to solve(); in
  /// frozen mode this path is allocation-free after the first call and, for
  /// the dense solver, factorizes the assembled matrix in place (the matrix
  /// is consumed — reassemble before the next solve).
  void solve_into(std::vector<double>& x);

  [[nodiscard]] std::size_t unknowns() const { return n_; }
  [[nodiscard]] bool sparse() const { return use_sparse_; }

  /// Frozen-mode solve disposition counters (all zero in default mode):
  /// how many solve_into() calls refactorized, rebuilt only the rhs against
  /// the previous factorization, or returned the cached solution outright,
  /// and how many sparse refactorizations found their frozen pivot order
  /// stale and fell back to a full factor. run_transient() exports them as
  /// the spice.solve.* and spice.lu.refactor_fallbacks counters.
  struct SolveStats {
    std::uint64_t refactored = 0;
    std::uint64_t rhs_only = 0;
    std::uint64_t cached = 0;
    std::uint64_t refactor_fallbacks = 0;
  };
  [[nodiscard]] const SolveStats& solve_stats() const { return stats_; }

 private:
  enum class Freeze { kOff, kLearning, kFrozen };

  /// Build the frozen CSC image + triplet scatter program from the current
  /// triplets, replicating SparseMatrix's duplicate-accumulation order so
  /// scattered values match a rebuilt matrix bitwise.
  void learn_sparse_structure();
  /// Build the dense scatter program: dense_slot_[k] is the column-major
  /// offset of triplet k, replayed in add order (the order direct +=
  /// accumulated in).
  void learn_dense_structure();
  /// Group the learned rhs add sequence by row (add order preserved within
  /// each row) so dirty rows can be re-accumulated individually.
  void learn_rhs_rows();

  std::size_t n_;
  bool use_sparse_;
  linalg::DenseMatrix dense_;
  // Sparse stamping accumulates triplets per solve; in frozen mode both
  // backends record triplets (dense included) so values can be replayed.
  // A frozen system holds its learned maps for a whole transient, so every
  // index array is 32-bit (the constructor and the learning pass check the
  // bounds).
  std::vector<std::uint32_t> trip_row_, trip_col_;
  std::vector<double> trip_val_;
  std::vector<double> rhs_;

  // Structure-frozen state.
  Freeze freeze_ = Freeze::kOff;
  bool partial_ = false;                   // current assemble used seek()
  // Bitwise value-change tracking across frozen assembles: when no matrix
  // slot changed, the previous factorization is still THE factorization of
  // this system and is reused; when the rhs didn't change either, the
  // previous solution is returned outright. Both are bit-identical shortcuts
  // (same bits in -> same bits out of a deterministic solver).
  bool mat_changed_ = true;
  bool rhs_changed_ = true;
  bool factor_ok_ = false;                 // dense_/slu_ hold a live factorization
  bool solve_cached_ = false;              // cached_x_ matches current values
  std::vector<double> cached_x_;
  std::size_t trip_cursor_ = 0;            // replay position during assembles
  std::size_t rhs_cursor_ = 0;
  std::vector<std::uint32_t> rhs_row_;     // learned rhs add sequence
  std::vector<double> rhs_val_;
  std::unique_ptr<linalg::SparseMatrix> a_;  // frozen CSC, values rewritten
  std::vector<std::uint32_t> dense_slot_;  // triplet -> dense value slot
  // Incremental scatter: rebuilding the whole CSC image per solve costs
  // O(triplets) even when one device restamped. The inverse maps below let
  // add() mark exactly the value slots / rhs rows its bit changes touch, and
  // solve_into() re-accumulates only those (in the recorded order, so the
  // sums stay bitwise full-rebuild sums). Matrix-side maps are sparse-only:
  // the dense in-place factorization consumes the matrix image, so dense
  // rebuilds are always full. rhs maps serve both backends.
  std::vector<std::uint32_t> trip_slot_;   // triplet index -> its CSC slot
  std::vector<std::uint32_t> slot_ptr_, slot_src_;  // slot -> triplets, in order
  std::vector<char> slot_dirty_;
  std::vector<std::uint32_t> dirty_slots_;
  std::vector<std::uint32_t> rhs_ptr_, rhs_src_;    // row -> rhs adds, in order
  std::vector<char> rhs_row_dirty_;
  std::vector<std::uint32_t> dirty_rhs_rows_;
  linalg::SparseLu slu_;
  linalg::DenseLuWorkspace dlw_;
  SolveStats stats_;
};

}  // namespace ppd::spice
