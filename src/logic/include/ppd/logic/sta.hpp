// Static timing analysis over a gate-level netlist with the calibrated
// timing library — the machinery behind the paper's premise: the targeted
// defects sit on paths whose *slack* exceeds the defect-induced delay, so
// they escape at-speed testing. STA identifies those non-critical fault
// sites and quantifies the slack the defect would have to eat.
#pragma once

#include <vector>

#include "ppd/logic/attenuation.hpp"
#include "ppd/logic/paths.hpp"

namespace ppd::logic {

struct StaResult {
  /// Worst-case (latest) arrival time per net, from the primary inputs:
  /// the worse of arrival_rise / arrival_fall.
  std::vector<double> arrival;
  /// Latest arrival per output-edge polarity. Polarity matters: an
  /// inverting gate's rising output edge is caused by a falling input edge
  /// and costs delay_rise, so rise/fall must be tracked separately rather
  /// than collapsed with max() per gate.
  std::vector<double> arrival_rise;
  std::vector<double> arrival_fall;
  /// Required time per net for the given clock period (latest time a change
  /// may appear without violating timing at any reachable output).
  std::vector<double> required;
  /// slack[net] = required[net] - arrival[net].
  std::vector<double> slack;
  /// Delay of the longest PI->PO path (the critical-path delay).
  double critical_delay = 0.0;
  double clock_period = 0.0;

  [[nodiscard]] double slack_at(NetId net) const;
};

/// Run STA with polarity-aware per-gate rise/fall delays.
/// `clock_period` <= 0 means "use the critical delay" (zero worst slack).
[[nodiscard]] StaResult run_sta(const Netlist& netlist,
                                const GateTimingLibrary& library,
                                double clock_period = 0.0);

/// Fault sites (gate outputs) whose slack is at least `min_slack` — the
/// defects there are invisible to delay testing until the defect eats that
/// much delay; they are the pulse method's target population.
[[nodiscard]] std::vector<NetId> slack_sites(const Netlist& netlist,
                                             const StaResult& sta,
                                             double min_slack);

}  // namespace ppd::logic
