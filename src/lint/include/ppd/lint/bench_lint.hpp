// Lenient .bench front end for static analysis.
//
// Unlike ppd::logic::parse_bench — which stops at the first malformed line
// or dangling reference — this scanner reads the whole file, records every
// defect it sees, builds the neutral NetGraph (placeholder nodes stand in
// for undriven references, the first driver wins on multi-driven nets) and
// then runs the structural checks of graph.hpp. It therefore diagnoses
// *all* problems of a bad netlist in one pass, with file:line locations.
//
// Front-end codes (on top of the PPD00x structural set):
//   PPD012 warning duplicate OUTPUT declaration
//   PPD013 error   syntax error (missing ')', missing '=', unknown type,
//                  empty operand, ...)
//   PPD014 error   OUTPUT declares a net that is never defined
#pragma once

#include <string>

#include "ppd/lint/diagnostic.hpp"
#include "ppd/lint/graph.hpp"

namespace ppd::lint {

/// Lint .bench text. `source` names the input in diagnostics.
[[nodiscard]] Report lint_bench_text(const std::string& text,
                                     const std::string& source = "<string>");

/// Lint a .bench file from disk; a missing/unreadable file is itself an
/// error-severity diagnostic (PPD013), not an exception.
[[nodiscard]] Report lint_bench_file(const std::string& path);

}  // namespace ppd::lint
