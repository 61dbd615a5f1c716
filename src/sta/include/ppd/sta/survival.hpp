// Static pulse-survival bounds: interval composition of the calibrated
// GateTiming attenuation characteristic (ppd/logic/attenuation.hpp) along
// paths, under a relative parameter margin that brackets calibration and
// process uncertainty.
//
// The per-gate width map w' = f(w; w_block, w_pass, shrink) is nonincreasing
// in each of the three parameters for any fixed w, so the attainable output
// range over the margin box is reached at just two corners: all parameters
// scaled by (1 - margin) gives the optimistic (widest-output) bound, all by
// (1 + margin) the pessimistic one. Composing optimistic bounds backward
// along a path yields the *provable block threshold*: the smallest launch
// width that could possibly reach the target under any in-box parameters.
// A path whose threshold exceeds the generator ceiling is pulse-dead — no
// SPICE run can ever detect a fault through it — and may be screened out
// without risking a missed detection. Conversely a pessimistic forward
// bound above the sensing floor proves guaranteed survival.
#pragma once

#include <vector>

#include "ppd/logic/attenuation.hpp"
#include "ppd/logic/paths.hpp"
#include "ppd/sta/interval.hpp"

namespace ppd::sta {

struct SurvivalOptions {
  double w_in_max = 1.2e-9;    ///< generator ceiling: widest launchable pulse
  double w_th_floor = 50e-12;  ///< sensing floor: narrowest detectable pulse
  /// Relative margin applied to (w_block, w_pass, shrink) in both
  /// directions. 0 trusts the library exactly.
  double margin = 0.25;
};

/// Output-width window of one gate for an input window, over the margin
/// box. Exact (corner-evaluated, see header comment), collapses to the
/// nominal map at margin = 0.
[[nodiscard]] Interval gate_pulse_bounds(const logic::GateTiming& t,
                                         const Interval& w_in, double margin);

/// Smallest input width that can possibly produce an output of width
/// >= `target` through one gate under optimistic in-box parameters
/// (closed-form inverse of the piecewise-linear map).
[[nodiscard]] double gate_required_width(const logic::GateTiming& t,
                                         double target, double margin);

/// Provable block threshold of a path: the smallest launch width that can
/// possibly reach the PO with width >= `target` (backward-composed
/// optimistic inverses). A launch budget below this is proof of
/// pulse-death along the path.
[[nodiscard]] double path_required_width(const logic::GateTimingLibrary& lib,
                                         const logic::Netlist& netlist,
                                         const logic::Path& path,
                                         double target, double margin);

struct SurvivalResult {
  /// need[net] = smallest pulse width present *at* the net that can
  /// possibly reach some primary output with width >= w_th_floor
  /// (optimistic corners, min over all downstream routes). +inf when no
  /// route can carry any pulse wide enough.
  std::vector<double> need;
  SurvivalOptions options;

  /// A fault site is statically pulse-dead when even the widest
  /// launchable pulse cannot satisfy its need.
  [[nodiscard]] bool dead(logic::NetId net) const;
};

/// Backward need pass over the whole netlist (reverse-topological min over
/// fanouts), pricing every potential fault site at once.
[[nodiscard]] SurvivalResult compute_survival(
    const logic::Netlist& netlist, const logic::GateTimingLibrary& library,
    const SurvivalOptions& options = {});

}  // namespace ppd::sta
