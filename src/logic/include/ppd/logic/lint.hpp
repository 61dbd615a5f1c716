// Static analysis entry points for the logic layer.
//
// Two kinds of pre-simulation validation live here:
//
//  * lint_netlist — adapt a built Netlist into the neutral ppd::lint graph
//    IR and run the PPD00x structural checks (a Netlist is acyclic and
//    single-driven by construction, so this surfaces the *semantic* finds:
//    floating inputs, dead gates, fanout pathologies);
//
//  * lint_pulse_test — vet a pulse-test configuration before it is applied:
//    the path must be structurally sound, every side input must rest at a
//    non-controlling value under BOTH phases of the launching input, and
//    (w_in, w_th) must be consistent with the path's attenuation model.
//
// Codes (PPD2xx — pulse-test configuration):
//   PPD201 error   side input at a controlling value (per gate, per phase)
//   PPD202 error   broken path (not PI->PO, or consecutive nets unconnected)
//   PPD203 error   non-positive w_in / w_th
//   PPD204 error   fault-free response below w_th (test fails a good machine)
//   PPD205 warning detection margin below 10%
//   PPD206 error   PI vector arity mismatch
//   PPD207 warning w_in below the path's asymptotic onset
#pragma once

#include "ppd/lint/graph.hpp"
#include "ppd/logic/faultsim.hpp"

namespace ppd::logic {

/// Structural/semantic checks over a built netlist.
[[nodiscard]] lint::Report lint_netlist(const Netlist& netlist);

/// Pre-application checks over one pulse test.
[[nodiscard]] lint::Report lint_pulse_test(const Netlist& netlist,
                                           const GateTimingLibrary& library,
                                           const PulseTest& test);

}  // namespace ppd::logic
