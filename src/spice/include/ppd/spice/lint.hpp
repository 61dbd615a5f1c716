// Static analysis over a built Circuit: validate_circuit adapts the device
// list into the neutral ppd::lint electrical IR and runs the PPD1xx checks
// (ground islands, gmin-dependent nodes, voltage-source loops, parameter
// ranges).
//
// The analyses call validate_circuit() on entry, so a structurally broken
// circuit is rejected with an actionable LintError *before* the MNA solver
// can fail deep inside a Monte-Carlo sweep with "singular matrix".
#pragma once

#include "ppd/lint/spice_lint.hpp"
#include "ppd/spice/circuit.hpp"

namespace ppd::spice {

/// Throw lint::LintError when `circuit` has error-severity defects
/// (islands, voltage-source loops, device-free nodes). Called by
/// run_op/run_transient on entry; cheap (union-find over the device list).
void validate_circuit(const Circuit& circuit,
                      const std::string& subject = "circuit");

}  // namespace ppd::spice
