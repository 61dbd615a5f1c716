#include "ppd/core/logic_bridge.hpp"

#include "ppd/core/pulse_test.hpp"
#include "ppd/util/error.hpp"

namespace ppd::core {

std::vector<cells::GateKind> to_cell_kinds(const logic::Netlist& netlist,
                                           const logic::Path& path) {
  std::vector<cells::GateKind> kinds;
  for (logic::NetId id : path.nets) {
    const logic::Gate& g = netlist.gate(id);
    const std::size_t fanin = g.fanin.size();
    switch (g.kind) {
      case logic::LogicKind::kInput:
        break;
      case logic::LogicKind::kNot:
        kinds.push_back(cells::GateKind::kInv);
        break;
      case logic::LogicKind::kBuf:
        kinds.push_back(cells::GateKind::kInv);
        kinds.push_back(cells::GateKind::kInv);
        break;
      case logic::LogicKind::kNand:
        PPD_REQUIRE(fanin == 2 || fanin == 3, "NAND fanin must be 2 or 3");
        kinds.push_back(fanin == 2 ? cells::GateKind::kNand2
                                   : cells::GateKind::kNand3);
        break;
      case logic::LogicKind::kNor:
        PPD_REQUIRE(fanin == 2 || fanin == 3, "NOR fanin must be 2 or 3");
        kinds.push_back(fanin == 2 ? cells::GateKind::kNor2
                                   : cells::GateKind::kNor3);
        break;
      case logic::LogicKind::kAnd:
        PPD_REQUIRE(fanin == 2, "AND fanin must be 2 for extraction");
        kinds.push_back(cells::GateKind::kNand2);
        kinds.push_back(cells::GateKind::kInv);
        break;
      case logic::LogicKind::kOr:
        PPD_REQUIRE(fanin == 2, "OR fanin must be 2 for extraction");
        kinds.push_back(cells::GateKind::kNor2);
        kinds.push_back(cells::GateKind::kInv);
        break;
      case logic::LogicKind::kXor:
      case logic::LogicKind::kXnor:
        throw PreconditionError(
            "XOR/XNOR gates have no transistor-level cell in this library");
    }
  }
  PPD_REQUIRE(!kinds.empty(), "path has no gates to extract");
  return kinds;
}

logic::GateTiming calibrate_gate_timing(const cells::Process& process,
                                        cells::GateKind kind,
                                        const TimingCalibrationOptions& options) {
  cells::PathOptions po;
  po.kinds = {kind};
  po.stage_load = options.stage_load;
  po.extra_fanout = 1;
  // Fast source edges so the narrowest grid pulses remain realizable.
  po.input_transition = 10e-12;

  const bool inverting = cells::gate_inverting(kind);
  logic::GateTiming t;

  // Delays: a rising output comes from a falling input on inverting gates.
  {
    cells::Path p = cells::build_path(process, po);
    const auto d = path_delay(p, /*input_rising=*/!inverting, options.sim);
    PPD_REQUIRE(d.has_value(), "gate produced no rising output transition");
    t.delay_rise = *d;
  }
  {
    cells::Path p = cells::build_path(process, po);
    const auto d = path_delay(p, /*input_rising=*/inverting, options.sim);
    PPD_REQUIRE(d.has_value(), "gate produced no falling output transition");
    t.delay_fall = *d;
  }

  // Width map from a pulse sweep through the single gate.
  std::vector<double> grid = options.w_grid;
  if (grid.empty()) grid = linspace(20e-12, 400e-12, 20);
  const TransferCurve curve = transfer_function(
      PathFactory{process, po, std::nullopt}, PulseKind::kH, grid, options.sim);

  // w_block: interpolated onset of propagation.
  std::size_t first_alive = grid.size();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (curve.w_out[i] > 0.0) {
      first_alive = i;
      break;
    }
  }
  PPD_REQUIRE(first_alive < grid.size(),
              "gate dampened every pulse in the calibration grid");
  t.w_block = first_alive == 0 ? 0.5 * grid.front() : grid[first_alive - 1];

  // w_pass: onset of the asymptotic (slope ~ 1) region.
  const auto onset = asymptotic_onset(curve, 0.15);
  t.w_pass = onset.has_value() ? grid[*onset] : 3.0 * t.w_block;
  if (t.w_pass <= t.w_block) t.w_pass = t.w_block * 1.5 + 1e-12;

  // shrink: width loss deep in the asymptotic region.
  t.shrink = grid.back() - curve.w_out.back();
  return t;
}

logic::GateTimingLibrary calibrate_timing_library(
    const cells::Process& process, const TimingCalibrationOptions& options) {
  logic::GateTimingLibrary lib;
  const logic::GateTiming inv =
      calibrate_gate_timing(process, cells::GateKind::kInv, options);
  lib.set(logic::LogicKind::kNot, inv);
  lib.set_default(inv);

  const logic::GateTiming nand2 =
      calibrate_gate_timing(process, cells::GateKind::kNand2, options);
  lib.set(logic::LogicKind::kNand, nand2);
  lib.set(logic::LogicKind::kAnd, nand2);

  const logic::GateTiming nor2 =
      calibrate_gate_timing(process, cells::GateKind::kNor2, options);
  lib.set(logic::LogicKind::kNor, nor2);
  lib.set(logic::LogicKind::kOr, nor2);
  return lib;
}

}  // namespace ppd::core
