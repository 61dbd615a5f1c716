// ISCAS-85/89 ".bench" format support: netlist loading, writer, the
// authentic c17 benchmark, and a deterministic synthetic generator producing
// C432-class circuits (36 PIs / 7 POs / ~160 NAND-NOR-NOT gates). The
// generator is the documented substitution for the real C432 netlist (see
// DESIGN.md): the Fig. 11 experiment only needs a population of structurally
// diverse paths, and the loader accepts a real c432.bench drop-in.
//
// The grammar itself lives in one place, the ppd::lint scanner
// (lint/bench_lint.hpp); parse_bench builds the Netlist from its graph.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "ppd/logic/netlist.hpp"

namespace ppd::logic {

/// Parse .bench text. Throws lint::LintError (a ParseError) carrying the
/// whole scan report when it holds any error-severity finding: every
/// syntax error, cycle, undriven or multi-driven net at once, located as
/// "source:line". `source` also becomes Netlist::source(). Inputs keep
/// their declaration order, outputs their first declaration order; gates
/// follow their definition lines, each placed once its operands exist.
[[nodiscard]] Netlist parse_bench(const std::string& text,
                                  const std::string& source = "");

/// Read a .bench file from disk and parse it with the path as source.
[[nodiscard]] Netlist load_bench_file(const std::string& path);

/// Serialize back to .bench text (INPUT/OUTPUT decls then gate lines in
/// topological order).
[[nodiscard]] std::string write_bench(const Netlist& netlist);

/// The authentic ISCAS-85 c17 netlist (6 NAND2 gates).
[[nodiscard]] Netlist c17();

/// Options for the synthetic benchmark generator.
struct SyntheticOptions {
  std::size_t inputs = 36;
  std::size_t outputs = 7;
  std::size_t gates = 160;
  std::uint64_t seed = 432;
  std::size_t max_fanin = 3;
};

/// Deterministic pseudo-random combinational circuit out of
/// NAND2/NAND3/NOR2/NOR3/NOT — the C432-class substitute.
[[nodiscard]] Netlist synthetic_benchmark(const SyntheticOptions& options);

}  // namespace ppd::logic
