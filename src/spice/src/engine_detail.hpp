// Private internals of the transient engine (analysis.cpp): assembly, the
// Newton loop and the per-step state machine. run_transient() drives them
// over a structure-frozen MnaSystem with a reused NewtonWorkspace and the
// bit-safe MosBypass; the same code over an unfrozen MnaSystem with neither
// is the from-scratch path, kept only as the oracle the frozen engine is
// tested and benchmarked against (UnfrozenOracle).
//
// Not installed; include only from ppd_spice translation units, the tests
// and bench_perf_engine (which get this directory as a private include
// path).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ppd/resil/deadline.hpp"
#include "ppd/spice/analysis.hpp"

namespace ppd::spice::detail {

struct NewtonOutcome {
  bool converged = false;
  int iterations = 0;
  /// Inf-norm of the final iteration's UNCLAMPED node-voltage update [V].
  /// Convergence itself is judged on the clamped update; this field exists
  /// for failure diagnostics, where reporting the clamped value would make
  /// every hard failure print dv_max instead of the true step.
  double residual = 0.0;
};

/// Caller-owned solve buffer for the allocation-free Newton path. When a
/// workspace is supplied, newton_solve() uses MnaSystem::solve_into() and
/// performs no per-iteration allocation (given a frozen MnaSystem).
struct NewtonWorkspace {
  std::vector<double> x_new;
};

/// Which subset of devices a (frozen, replay-ready) assemble must restamp.
/// Ignored — every assemble is full — until the plan has been learned and
/// the MnaSystem replays, so the unfrozen path never changes behavior.
enum class AssemblePhase {
  kFull,           ///< stamp everything (learning pass, unfrozen path, OP)
  kStepRefresh,    ///< new time point: time-varying devices only
  kIterateRefresh  ///< same time point, new Newton iterate: nonlinear only
};

/// Per-device replay windows into a frozen MnaSystem's learned add
/// sequences, recorded during the learning assemble. With a learned plan,
/// kStepRefresh / kIterateRefresh assembles seek() to each listed device's
/// window and restamp just that device; every untouched slot keeps the
/// value it had, and solve_into() replays the full sequence in the original
/// accumulation order — so partial assembles are bit-identical to full
/// ones whenever the skipped devices' values are unchanged (linear stamps
/// within a step; static stamps across the whole transient).
struct AssemblePlan {
  bool learned = false;
  std::vector<std::size_t> refresh;      ///< device idx: stamp_time_varying()
  std::vector<std::size_t> nonlinear;    ///< device idx: is_nonlinear()
  std::vector<MnaSystem::Mark> marks;    ///< per device, slot-window starts

  // Selective (dirty-driven) refresh. The refresh/nonlinear lists above are
  // membership tests (which devices CAN change); the machinery below tracks
  // which devices DID change since their slots were last written, so a
  // partial walk visits only those. Three channels feed it:
  //   - node_watch: nonlinear stamps are functions of the iterate, so the
  //     Newton update marks every x entry whose bits moved (node_dirty) and
  //     the walk visits the nonlinear devices watching those entries;
  //   - dev_dirty: dynamic stamps are functions of committed integration
  //     state, so commit_step() reports bitwise state changes per device;
  //   - sources: explicit time dependence, revisited every new time point.
  // Skipped devices' slots replay verbatim, which is exactly the bit-
  // identity contract of partial assembly — the dirty sets only ever ADD
  // visits relative to the minimal correct set, never remove one.
  std::vector<std::size_t> sources;      ///< time-varying, static state
  std::vector<std::vector<std::uint32_t>> node_watch;  ///< x idx -> nonlinear
  std::vector<char> node_dirty;   ///< x bits moved since the last walk
  std::vector<char> dev_dirty;    ///< commit state moved since the last walk
  std::vector<std::uint32_t> visit_epoch;  ///< per device, walk dedupe
  std::uint32_t epoch = 0;
  bool selective = false;  ///< machinery sized and maintained (frozen only)
  bool all_dirty = true;   ///< conservative reset: next walk is a full one
};

/// Stamp every device plus the global gmin-to-ground leak — or, given a
/// learned plan and a replay-ready MnaSystem, only the phase's subset.
void assemble(Circuit& circuit, MnaSystem& mna, const StampContext& ctx,
              AssemblePlan* plan = nullptr,
              AssemblePhase phase = AssemblePhase::kFull);

/// Newton-Raphson: iterate full solves of the linearized system until the
/// voltage update is below tolerance. `x` carries the initial guess in and
/// the solution out. `first_phase` applies to the first assemble; later
/// iterations use kIterateRefresh (a no-op downgrade to kFull without a
/// learned plan).
NewtonOutcome newton_solve(Circuit& circuit, MnaSystem& mna, StampContext ctx,
                           const NewtonOptions& opt, std::vector<double>& x,
                           const resil::Deadline& deadline = {},
                           NewtonWorkspace* ws = nullptr,
                           AssemblePlan* plan = nullptr,
                           AssemblePhase first_phase = AssemblePhase::kFull);

/// run_op with the wall-clock deadline supplied by the caller, so transient
/// drivers can thread ONE shared deadline through both phases.
OpResult run_op_with_deadline(Circuit& circuit, const OpOptions& options,
                              const resil::Deadline& deadline);

/// Size the waveform/name/probe arrays of a TransientResult for `circuit`
/// and fill `probe_list` with the recorded MNA node ids.
void init_transient_result(const Circuit& circuit,
                           const std::vector<NodeId>& probe,
                           TransientResult& result,
                           std::vector<std::size_t>& probe_list);

/// Per-sample transient state machine: one step() call is one attempted
/// time step (accepted, rejected, or nothing left to do). Owns the step
/// size, the adaptive controllers (iteration-count and LTE), the end-of-
/// sweep snapping, and the iterate buffers. The driver (run_transient) owns
/// the circuit, the MnaSystem, the OP phase, waveform recording, and lets
/// exceptions fly.
class TransientStepper {
 public:
  enum class Outcome { kAccepted, kRejected, kFinished };

  /// `x_op` is the operating point. `ws`/`bypass` are null only on the
  /// unfrozen oracle path (an unfrozen `mna`, no bypass).
  TransientStepper(Circuit& circuit, MnaSystem& mna,
                   const TransientOptions& options, double t_stop,
                   resil::Deadline deadline, const std::vector<double>& x_op,
                   NewtonWorkspace* ws, MosBypass* bypass);

  /// Attempt one step. Throws TimeoutError on deadline expiry and
  /// NumericalError when Newton fails at the minimum step or diverges.
  Outcome step();

  /// Accumulated time, snapped to exactly t_stop at the end of the sweep.
  [[nodiscard]] double time() const { return t_; }
  [[nodiscard]] const std::vector<double>& x() const { return x_; }
  [[nodiscard]] int last_iterations() const { return last_iterations_; }
  /// True when the sweep ended by snapping a sub-dt_min sliver to t_stop
  /// without integrating it (the driver should record one more point).
  [[nodiscard]] bool snapped_without_step() const { return snapped_; }

 private:
  Circuit& circuit_;
  MnaSystem& mna_;
  const TransientOptions& options_;
  resil::Deadline deadline_;
  NewtonWorkspace* ws_;
  MosBypass* bypass_;
  std::size_t node_unknowns_;
  double t_stop_;
  double t_end_;  // relative end-of-sweep guard
  double t_ = 0.0;
  double h_;
  double h_prev_ = 0.0;
  double stamp_h_ = 0.0;  // h of the last attempted solve (bitwise compare)
  bool have_stamp_h_ = false;
  bool have_history_ = false;
  bool just_rejected_ = false;
  bool snapped_ = false;
  int last_iterations_ = 0;
  AssemblePlan plan_;  // partial re-assembly windows (frozen MnaSystem only)
  std::vector<double> x_, x_try_, x_prev_;
};

/// Test and bench oracle. While at least one UnfrozenOracle is alive
/// (process-wide, any thread), run_transient() takes the unfrozen
/// from-scratch path: an unfrozen MnaSystem, no workspace, no bypass —
/// triplets, CSC and a full LU rebuilt on every Newton iteration. Its
/// results must equal the frozen engine's bit for bit; tests and
/// bench_perf_engine hold one to get the reference. Clear the solve cache
/// between a frozen and an oracle pass, or the second replays the first.
class UnfrozenOracle {
 public:
  UnfrozenOracle();
  ~UnfrozenOracle();
  UnfrozenOracle(const UnfrozenOracle&) = delete;
  UnfrozenOracle& operator=(const UnfrozenOracle&) = delete;
};

}  // namespace ppd::spice::detail
