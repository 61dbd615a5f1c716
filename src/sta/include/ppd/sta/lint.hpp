// PPD3xx — static-timing/testability lint rules, the diagnostic face of
// ppd::sta. Emitted through the same stable-code machinery as the PPD0xx
// netlist, PPD1xx electrical and PPD2xx pulse-config families:
//
//   PPD301  warning  statically pulse-dead gate: even the widest
//                    launchable pulse at this site cannot reach any PO at
//                    the sensing floor (optimistic survival bound)
//   PPD302  warning  unjustifiable side input: one of the 32 slackiest
//                    paths has side inputs that cannot be sensitized to
//                    non-controlling values
//   PPD303  note     untestable slack site: the net has enough slack to
//                    hide a small delay defect, but is pulse-dead — the
//                    pulse method cannot cover it
//   PPD304  warning  generator ceiling below every path's provable block
//                    threshold: the configured w_in_max makes the entire
//                    netlist statically undetectable
#pragma once

#include "ppd/lint/diagnostic.hpp"
#include "ppd/logic/attenuation.hpp"
#include "ppd/logic/sensitize.hpp"
#include "ppd/sta/survival.hpp"

namespace ppd::sta {

struct StaLintOptions {
  double clock_period = 0.0;  ///< <= 0: use the netlist's critical delay
  SurvivalOptions survival;
  /// A net is a "slack site" for PPD303 when its guaranteed slack is at
  /// least this fraction of the clock period.
  double slack_frac = 0.25;
  logic::SensitizeOptions sensitize;
};

/// Run the PPD3xx family over one netlist.
[[nodiscard]] lint::Report lint_sta(const logic::Netlist& netlist,
                                    const logic::GateTimingLibrary& library,
                                    const StaLintOptions& options = {});

}  // namespace ppd::sta
