// The .bench front end: the one reader of ISCAS .bench text.
//
// The scanner reads the whole file, records every defect it sees, builds
// the neutral NetGraph (placeholder nodes stand in for undriven
// references, the first driver wins on multi-driven nets) and then runs the
// structural checks of graph.hpp. It therefore diagnoses *all* problems of
// a bad netlist in one pass, with file:line locations. `ppdtool lint`
// reports the scan; ppd::logic::parse_bench builds its Netlist from a scan
// without error-severity findings, so every netlist load reads the same
// grammar.
//
// Front-end codes (on top of the PPD00x structural set):
//   PPD012 warning duplicate OUTPUT declaration
//   PPD013 error   syntax error (missing ')', missing '=', unknown type,
//                  empty operand, ...)
//   PPD014 error   OUTPUT declares a net that is never defined
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ppd/lint/diagnostic.hpp"
#include "ppd/lint/graph.hpp"

namespace ppd::lint {

/// One scanned .bench text. GraphNode::kind holds the canonical gate type
/// (BUFF -> BUF, INV -> NOT, otherwise the upper-cased name).
struct BenchScan {
  NetGraph graph;
  std::vector<std::size_t> inputs;   ///< INPUT declarations, in file order
  std::vector<std::size_t> gates;    ///< each gate's first definition, in file order
  std::vector<std::size_t> outputs;  ///< OUTPUT declarations, in file order
  Report report;                     ///< front-end, then structural findings
};

/// Scan .bench text. `source` names the input in diagnostics.
[[nodiscard]] BenchScan scan_bench_text(const std::string& text,
                                        const std::string& source = "<string>");

/// Lint .bench text: the report of scan_bench_text.
[[nodiscard]] Report lint_bench_text(const std::string& text,
                                     const std::string& source = "<string>");

/// Lint a .bench file from disk; a missing/unreadable file is itself an
/// error-severity diagnostic (PPD013), not an exception.
[[nodiscard]] Report lint_bench_file(const std::string& path);

}  // namespace ppd::lint
