// Polarity-tracked path delays and the K-slackiest path enumerator.
//
// The paper's target population is the set of paths whose slack exceeds the
// defect-induced delay. Per-net slack comes from logic::run_sta; this
// header names the paths themselves: best-first branch-and-bound with
// per-(net, polarity) suffix lower bounds, so the highest-slack candidates
// come out without exhaustive path enumeration. Delays track edge polarity
// gate by gate (logic::edge_cause): an inverting gate's rising output edge
// is caused by a falling input edge and costs delay_rise, and XOR/XNOR may
// be flipped by either edge.
#pragma once

#include <cstddef>
#include <vector>

#include "ppd/logic/attenuation.hpp"
#include "ppd/logic/paths.hpp"

namespace ppd::sta {

/// Worst-case (over launch polarity) delay of one concrete path, tracking
/// edge polarity gate by gate — the polarity-correct replacement for
/// "levels x max(delay_rise, delay_fall)".
[[nodiscard]] double path_delay_worst(const logic::Netlist& netlist,
                                      const logic::GateTimingLibrary& library,
                                      const logic::Path& path);

struct SlackPath {
  logic::Path path;
  double delay = 0.0;  ///< worst-case polarity-tracked path delay
  double slack = 0.0;  ///< clock_period - delay
};

/// The `k` PI->PO paths of largest slack (= smallest worst-case delay),
/// best-first branch-and-bound on per-(net, polarity) suffix lower bounds.
/// A path runs through at least one gate (a PI that is also a PO is none).
/// `clock_period` <= 0 means "use the critical delay". Deterministic:
/// sorted by (delay, path nets lexicographically).
[[nodiscard]] std::vector<SlackPath> k_slackiest_paths(
    const logic::Netlist& netlist, const logic::GateTimingLibrary& library,
    std::size_t k, double clock_period = 0.0);

}  // namespace ppd::sta
