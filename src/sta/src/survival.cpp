#include "ppd/sta/survival.hpp"

#include <algorithm>
#include <limits>

#include "ppd/util/error.hpp"

namespace ppd::sta {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Scale the width parameters by `factor`; k = (w_pass - shrink) /
/// (w_pass - w_block) is invariant under uniform scaling, so the scaled
/// map is still continuous at its w_pass.
logic::GateTiming scaled(const logic::GateTiming& t, double factor) {
  logic::GateTiming s = t;
  s.w_block = t.w_block * factor;
  s.w_pass = t.w_pass * factor;
  s.shrink = t.shrink * factor;
  return s;
}

}  // namespace

Interval gate_pulse_bounds(const logic::GateTiming& t, const Interval& w_in,
                           double margin) {
  PPD_REQUIRE(margin >= 0.0 && margin < 1.0, "margin must be in [0, 1)");
  // w_out is nondecreasing in w and nonincreasing in each width parameter,
  // so the box extrema sit at the two uniform corners.
  const double lo = gate_pulse_out(scaled(t, 1.0 + margin),
                                   std::max(0.0, w_in.lo));
  const double hi = gate_pulse_out(scaled(t, 1.0 - margin),
                                   std::max(0.0, w_in.hi));
  return {lo, hi};
}

double gate_required_width(const logic::GateTiming& t, double target,
                           double margin) {
  PPD_REQUIRE(margin >= 0.0 && margin < 1.0, "margin must be in [0, 1)");
  const logic::GateTiming opt = scaled(t, 1.0 - margin);
  if (target <= 0.0) return opt.w_block;  // anything past the block point
  const double asymptote = opt.w_pass - opt.shrink;
  if (target >= asymptote) return target + opt.shrink;
  const double k = (opt.w_pass - opt.shrink) / (opt.w_pass - opt.w_block);
  return target / k + opt.w_block;
}

double path_required_width(const logic::GateTimingLibrary& lib,
                           const logic::Netlist& netlist,
                           const logic::Path& path, double target,
                           double margin) {
  const auto kinds = logic::path_kinds(netlist, path);
  double need = target;
  for (auto it = kinds.rbegin(); it != kinds.rend(); ++it)
    need = gate_required_width(lib.timing(*it), need, margin);
  return need;
}

bool SurvivalResult::dead(logic::NetId net) const {
  PPD_REQUIRE(net < need.size(), "net id out of range");
  return need[net] > options.w_in_max;
}

SurvivalResult compute_survival(const logic::Netlist& netlist,
                                const logic::GateTimingLibrary& library,
                                const SurvivalOptions& options) {
  PPD_REQUIRE(options.w_in_max > 0.0, "w_in_max must be positive");
  PPD_REQUIRE(options.w_th_floor > 0.0, "w_th_floor must be positive");
  SurvivalResult res;
  res.options = options;
  res.need.assign(netlist.size(), kInf);

  const auto order = netlist.topological_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const logic::NetId id = *it;
    if (netlist.is_output(id))
      res.need[id] = options.w_th_floor;
    for (logic::NetId g : netlist.fanout(id)) {
      const double via = res.need[g];
      if (via == kInf) continue;
      const logic::GateTiming& t = library.timing(netlist.gate(g).kind);
      res.need[id] =
          std::min(res.need[id],
                   gate_required_width(t, via, options.margin));
    }
  }
  return res;
}

}  // namespace ppd::sta
