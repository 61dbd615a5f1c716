// The static path screen: the gate between path enumeration and the
// electrical layer. Every candidate path gets a verdict —
//
//   kKept           survives every enabled static check; eligible for
//                   SPICE characterization
//   kUnjustifiable  its side inputs cannot be justified to non-controlling
//                   values (SCOAP-infinite or sensitization ATPG failure)
//   kPulseDead      its provable block threshold exceeds the generator
//                   ceiling: no launchable pulse can reach the PO at the
//                   sensing floor even under optimistic in-box parameters
//                   (ppd/sta/survival.hpp), so no SPICE run through it can
//                   ever detect anything
//
// Screened-out paths are counted and reported, never silently dropped —
// the coverage/R_min callers surface the counts so a pruned sweep is
// auditable against the brute-force one.
#pragma once

#include <cstdint>
#include <vector>

#include "ppd/logic/attenuation.hpp"
#include "ppd/logic/paths.hpp"
#include "ppd/logic/sensitize.hpp"

namespace ppd::sta {

enum class Verdict {
  kKept,
  kPulseDead,
  kUnjustifiable,
};

[[nodiscard]] const char* verdict_name(Verdict v);

struct ScreenOptions {
  double w_in_max = 1.2e-9;    ///< generator ceiling
  double w_th_floor = 50e-12;  ///< sensing floor
  double margin = 0.25;        ///< survival-bound parameter margin
  bool justify = true;         ///< enable the sensitization screen
  logic::SensitizeOptions sensitize;
  int threads = 1;  ///< exec lanes; verdicts are thread-count invariant
};

struct ScreenedPath {
  logic::Path path;
  Verdict verdict = Verdict::kKept;
  double delay = 0.0;       ///< polarity-tracked worst-case path delay
  double w_required = 0.0;  ///< provable block threshold at the sensing floor
  std::uint64_t scoap_cost = 0;  ///< SCOAP side-input justification price
};

struct ScreenReport {
  /// One entry per input path, input order preserved.
  std::vector<ScreenedPath> paths;
  std::size_t kept = 0;
  std::size_t pulse_dead = 0;
  std::size_t unjustifiable = 0;
};

/// Screen `paths`. Deterministic at any thread count: each path's verdict
/// depends only on the path itself. Checks run cheapest first (survival
/// bound before sensitization ATPG), so a pulse-dead path never pays for
/// justification.
[[nodiscard]] ScreenReport screen_paths(const logic::Netlist& netlist,
                                        const logic::GateTimingLibrary& library,
                                        const std::vector<logic::Path>& paths,
                                        const ScreenOptions& options = {});

}  // namespace ppd::sta
