// Electrical static analysis over a neutral device-graph IR.
//
// ppd::spice adapts a built Circuit into an ElecGraph (spice/lint.hpp);
// the deck scanner below builds one straight from SPICE-deck text (the
// dialect ppd::spice::write_spice emits), so decks can be vetted before —
// or without — constructing a Circuit whose device constructors would
// reject bad values outright.
//
// Checks (stable codes):
//   PPD101 error   device group with no connection to ground (island)
//   PPD102 warning node with no DC path to ground (gmin-dependent OP)
//   PPD103 error   non-positive resistance
//   PPD104 error   non-positive capacitance
//   PPD105 error   bad MOSFET parameters (W/L/KP <= 0, wrong-sign VT0)
//   PPD106 error   voltage-source loop
//   PPD107 warning physically implausible value (R/C/W/L out of range)
//   PPD108 warning circuit has no sources
//   PPD109 error   node touched by no device (singular MNA row)
//   PPD110 error   deck syntax error
#pragma once

#include <string>
#include <vector>

#include "ppd/lint/diagnostic.hpp"

namespace ppd::lint {

enum class ElecKind { kResistor, kCapacitor, kVsource, kIsource, kMosfet };

struct ElecDevice {
  ElecKind kind = ElecKind::kResistor;
  std::string name;
  std::vector<int> nodes;  ///< 0 = ground; R/C/V/I: 2 terminals, M: d,g,s
  double value = 0.0;      ///< ohms / farads (unused for sources)
  // MOSFET-only:
  double w = 0.0, l = 0.0, kp = 0.0, vt0 = 0.0;
  bool is_pmos = false;
  int line = 0;            ///< 1-based deck line, 0 = unknown
};

struct ElecGraph {
  std::string source;                   ///< file/subject name for diagnostics
  std::vector<std::string> node_names;  ///< index = node id; [0] = ground
  std::vector<ElecDevice> devices;

  [[nodiscard]] std::string where(const ElecDevice& d) const;
};

/// Run every electrical check over `graph`.
[[nodiscard]] Report lint_elec(const ElecGraph& graph);

/// Scan SPICE-deck text (R/C/V/I/M cards, .model/.tran/.end ignored) into
/// an ElecGraph and lint it. Unknown or malformed cards raise PPD110.
[[nodiscard]] Report lint_spice_deck_text(const std::string& text,
                                          const std::string& source = "<string>");

/// Lint a deck file from disk; an unreadable file is a PPD110 diagnostic.
[[nodiscard]] Report lint_spice_deck_file(const std::string& path);

}  // namespace ppd::lint
