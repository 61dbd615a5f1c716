// The guarded sweep ties the resilience pillars together for one parallel
// sweep: policy-driven quarantine (exec's on_item_error hook), wall-clock
// budgets (a Watchdog on the sweep's CancelToken), checkpointing every 5 s
// and on the way out, resume, and the deterministic fault-injection seams
// (item failure/delay, cancel-after-items). Every guarded sweep in the
// library — the coverage and R_min MC sweeps and the logic fault simulator
// — runs through run_guarded_sweep.
//
// Determinism: with quarantine on and no wall-clock budget expiring, the
// quarantine report and the merged results are bit-identical at any thread
// count, because item failure is a pure function of the item index (the
// per-item RNG contract plus FaultPlan's hashed draws).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ppd/exec/parallel.hpp"
#include "ppd/resil/faultplan.hpp"
#include "ppd/resil/quarantine.hpp"

namespace ppd::resil {

/// Per-sweep resilience policy, embedded in CoverageOptions / RminOptions /
/// FaultSimOptions. The all-defaults policy is a no-op: fail-fast, no
/// budgets, no checkpointing, no injection — exactly the pre-resil
/// behaviour ("strict mode").
struct SweepPolicy {
  /// Record failing items into a QuarantineReport and keep sweeping
  /// (false = fail fast, today's behaviour).
  bool quarantine = false;
  /// Wall budget for each item's electrical solves, forwarded into the
  /// simulator by the caller (0 = unlimited). Expiry throws TimeoutError in
  /// the item, which quarantines like any other failure.
  double solve_budget_seconds = 0.0;
  /// Wall budget for the whole sweep (0 = unlimited). Expiry cancels the
  /// sweep, which then throws TimeoutError after saving a checkpoint.
  double sweep_budget_seconds = 0.0;
  /// Checkpoint file ("" = no checkpointing); written every 5 s and on
  /// cancellation/finish.
  std::string checkpoint_path;
  /// Load checkpoint_path before sweeping and skip its completed items.
  bool resume = false;
  /// Deterministic fault injection (off by default).
  FaultPlan faults;
};

/// One item's result: a row of 0/1 verdicts (one per multiplier for the
/// coverage sweeps, a single one for R_min and the fault simulator). The
/// checkpoint payload of an item is its row as '0'/'1' characters, so a
/// resumed sweep is bit-identical to an uninterrupted one.
using VerdictRow = std::vector<char>;

struct GuardedSweep {
  /// rows[i] is item i's row; empty for a quarantined item.
  std::vector<VerdictRow> rows;
  /// Sorted by item, so it is the same at any thread count.
  QuarantineReport quarantine;
};

/// Run `row(i)` for every i in [0, items) through exec::parallel_map under
/// `policy`: resumed items come from the checkpoint, fresh ones run inside
/// the fault-injection scope, failures quarantine (when the policy says
/// so), and the checkpoint is saved every 5 s, at the end and before a
/// cancellation escapes.
/// `par.context` names the sweep in errors and is the checkpoint identity
/// together with (seed, items). Every row has `width` verdicts; a resumed
/// checkpoint holding any other payload throws ParseError before the sweep
/// starts. `item_seed(i)` is the RNG derivation index recorded in
/// quarantine entries (identity when null). A sweep watchdog
/// expiry throws TimeoutError; any other cancellation propagates as
/// exec::CancelledError. The stats of a finished sweep are recorded under
/// `domain` (exec::record_sweep).
[[nodiscard]] GuardedSweep run_guarded_sweep(
    const SweepPolicy& policy, std::uint64_t seed,
    const std::function<std::uint64_t(std::size_t)>& item_seed,
    exec::ParallelOptions par, const std::string& domain, std::size_t items,
    std::size_t width, const std::function<VerdictRow(std::size_t)>& row);

}  // namespace ppd::resil
