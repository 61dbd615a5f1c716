#include "ppd/logic/sta.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "ppd/util/error.hpp"

namespace ppd::logic {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

double StaResult::slack_at(NetId net) const {
  PPD_REQUIRE(net < slack.size(), "net id out of range");
  return slack[net];
}

StaResult run_sta(const Netlist& netlist, const GateTimingLibrary& library,
                  double clock_period) {
  const std::size_t n = netlist.size();
  StaResult res;
  res.arrival.assign(n, 0.0);
  res.arrival_rise.assign(n, 0.0);
  res.arrival_fall.assign(n, 0.0);
  res.required.assign(n, kInf);
  res.slack.assign(n, 0.0);

  const auto order = netlist.topological_order();

  // Forward: latest arrival per output-edge polarity (PIs launch both
  // polarities at t = 0). A rising output of an inverting gate is caused
  // by a falling input and costs delay_rise — collapsing rise/fall with
  // max() here would overstate delay through inverter-heavy paths.
  for (NetId id : order) {
    const Gate& g = netlist.gate(id);
    if (g.kind == LogicKind::kInput) continue;
    const GateTiming& t = library.timing(g.kind);
    const EdgeCause cause = edge_cause(g.kind);
    double rise_src = 0.0;
    double fall_src = 0.0;
    for (NetId f : g.fanin) {
      // The input-edge arrivals able to cause a rising / falling output
      // edge; XOR-class gates pass the worse of both.
      double rise = res.arrival_rise[f];
      double fall = res.arrival_fall[f];
      switch (cause) {
        case EdgeCause::kSame: break;
        case EdgeCause::kInverted: std::swap(rise, fall); break;
        case EdgeCause::kEither: rise = fall = std::max(rise, fall); break;
      }
      rise_src = std::max(rise_src, rise);
      fall_src = std::max(fall_src, fall);
    }
    res.arrival_rise[id] = rise_src + t.delay_rise;
    res.arrival_fall[id] = fall_src + t.delay_fall;
    res.arrival[id] = std::max(res.arrival_rise[id], res.arrival_fall[id]);
  }
  for (NetId o : netlist.outputs())
    res.critical_delay = std::max(res.critical_delay, res.arrival[o]);

  res.clock_period = clock_period > 0.0 ? clock_period : res.critical_delay;

  // Backward: required times from the outputs, per causing polarity.
  std::vector<double> req_rise(n, kInf);
  std::vector<double> req_fall(n, kInf);
  for (NetId o : netlist.outputs()) {
    req_rise[o] = std::min(req_rise[o], res.clock_period);
    req_fall[o] = std::min(req_fall[o], res.clock_period);
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NetId id = *it;
    const Gate& g = netlist.gate(id);
    if (g.kind == LogicKind::kInput) continue;
    const GateTiming& t = library.timing(g.kind);
    const double via_rise = req_rise[id] - t.delay_rise;
    const double via_fall = req_fall[id] - t.delay_fall;
    // The required time of each input polarity: the tighter of the output
    // edges it can cause.
    double need_rise = via_rise;
    double need_fall = via_fall;
    switch (edge_cause(g.kind)) {
      case EdgeCause::kSame: break;
      case EdgeCause::kInverted: std::swap(need_rise, need_fall); break;
      case EdgeCause::kEither:
        need_rise = need_fall = std::min(via_rise, via_fall);
        break;
    }
    for (NetId f : g.fanin) {
      req_rise[f] = std::min(req_rise[f], need_rise);
      req_fall[f] = std::min(req_fall[f], need_fall);
    }
  }
  // Collapse to the legacy per-net view: the binding (smallest-slack)
  // polarity. Nets feeding nothing that reaches an output keep infinite
  // required time; clamp their slack to the clock period for sane
  // reporting.
  for (NetId id = 0; id < n; ++id) {
    const double slack_rise = (std::isinf(req_rise[id]) ? res.clock_period
                                                        : req_rise[id]) -
                              res.arrival_rise[id];
    const double slack_fall = (std::isinf(req_fall[id]) ? res.clock_period
                                                        : req_fall[id]) -
                              res.arrival_fall[id];
    res.slack[id] = std::min(slack_rise, slack_fall);
    res.required[id] = std::min(req_rise[id], req_fall[id]);
  }
  return res;
}

std::vector<NetId> slack_sites(const Netlist& netlist, const StaResult& sta,
                               double min_slack) {
  std::vector<NetId> sites;
  for (NetId id = 0; id < netlist.size(); ++id) {
    if (netlist.gate(id).kind == LogicKind::kInput) continue;
    if (sta.slack[id] >= min_slack) sites.push_back(id);
  }
  return sites;
}

}  // namespace ppd::logic
