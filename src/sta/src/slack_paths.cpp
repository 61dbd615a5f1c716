#include "ppd/sta/slack_paths.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "ppd/logic/sta.hpp"
#include "ppd/util/error.hpp"

namespace ppd::sta {

namespace {

using logic::EdgeCause;
using logic::edge_cause;

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Branch-and-bound expansion cap.
constexpr std::size_t kNodeBudget = std::size_t{1} << 18;

/// Polarity-pair DP step: accumulated worst delays (rise, fall) of the
/// current edge through one more gate. Unreachable polarity = -inf.
struct PolCost {
  double rise = -kInf;
  double fall = -kInf;

  [[nodiscard]] double worst() const { return std::max(rise, fall); }
};

PolCost step(const PolCost& c, const logic::GateTiming& t, EdgeCause cause) {
  PolCost out;
  switch (cause) {
    case EdgeCause::kSame:
      if (c.rise > -kInf) out.rise = c.rise + t.delay_rise;
      if (c.fall > -kInf) out.fall = c.fall + t.delay_fall;
      break;
    case EdgeCause::kInverted:
      if (c.fall > -kInf) out.rise = c.fall + t.delay_rise;
      if (c.rise > -kInf) out.fall = c.rise + t.delay_fall;
      break;
    case EdgeCause::kEither: {
      const double w = c.worst();
      if (w > -kInf) {
        out.rise = w + t.delay_rise;
        out.fall = w + t.delay_fall;
      }
      break;
    }
  }
  return out;
}

}  // namespace

double path_delay_worst(const logic::Netlist& netlist,
                        const logic::GateTimingLibrary& library,
                        const logic::Path& path) {
  PPD_REQUIRE(!path.nets.empty(), "empty path");
  PolCost c{0.0, 0.0};  // a PI launches either polarity at t = 0
  for (std::size_t i = 1; i < path.nets.size(); ++i) {
    const logic::Gate& g = netlist.gate(path.nets[i]);
    c = step(c, library.timing(g.kind), edge_cause(g.kind));
  }
  return c.worst();
}

std::vector<SlackPath> k_slackiest_paths(const logic::Netlist& netlist,
                                         const logic::GateTimingLibrary& library,
                                         std::size_t k, double clock_period) {
  std::vector<SlackPath> out;
  if (k == 0 || netlist.outputs().empty()) return out;
  const std::size_t n = netlist.size();

  // Suffix lower bounds h[net][pol]: the least extra worst-case delay any
  // completion to an output can add, entering `net` with that edge
  // polarity. Reverse-topological min over fanouts; admissible because the
  // DP's max-over-polarities can only grow along a real completion.
  std::vector<double> h_rise(n, kInf);
  std::vector<double> h_fall(n, kInf);
  const auto order = netlist.topological_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const logic::NetId id = *it;
    if (netlist.is_output(id)) {
      h_rise[id] = 0.0;
      h_fall[id] = 0.0;
    }
    for (logic::NetId g : netlist.fanout(id)) {
      const logic::GateTiming& t = library.timing(netlist.gate(g).kind);
      switch (edge_cause(netlist.gate(g).kind)) {
        case EdgeCause::kSame:
          h_rise[id] = std::min(h_rise[id], t.delay_rise + h_rise[g]);
          h_fall[id] = std::min(h_fall[id], t.delay_fall + h_fall[g]);
          break;
        case EdgeCause::kInverted:
          h_fall[id] = std::min(h_fall[id], t.delay_rise + h_rise[g]);
          h_rise[id] = std::min(h_rise[id], t.delay_fall + h_fall[g]);
          break;
        case EdgeCause::kEither: {
          const double via = std::min(t.delay_rise + h_rise[g],
                                      t.delay_fall + h_fall[g]);
          h_rise[id] = std::min(h_rise[id], via);
          h_fall[id] = std::min(h_fall[id], via);
          break;
        }
      }
    }
  }

  struct Node {
    double bound = 0.0;  ///< prefix DP + suffix lower bound
    PolCost cost;
    std::vector<logic::NetId> nets;

    bool operator>(const Node& other) const {
      if (bound != other.bound) return bound > other.bound;
      return nets > other.nets;  // deterministic tie-break
    }
  };

  const auto bound_of = [&](const PolCost& c, logic::NetId net) {
    double b = -kInf;
    if (c.rise > -kInf) b = std::max(b, c.rise + h_rise[net]);
    if (c.fall > -kInf) b = std::max(b, c.fall + h_fall[net]);
    return b;
  };

  std::priority_queue<Node, std::vector<Node>, std::greater<Node>> open;
  for (logic::NetId pi : netlist.inputs()) {
    Node seed;
    seed.cost = PolCost{0.0, 0.0};
    seed.nets = {pi};
    seed.bound = bound_of(seed.cost, pi);
    if (std::isfinite(seed.bound)) open.push(std::move(seed));
  }

  const double clock = clock_period > 0.0
                           ? clock_period
                           : logic::run_sta(netlist, library).critical_delay;
  std::size_t expanded = 0;
  while (!open.empty() && out.size() < k && expanded < kNodeBudget) {
    Node node = open.top();
    open.pop();
    ++expanded;
    const logic::NetId tip = node.nets.back();
    if (netlist.is_output(tip) && node.nets.size() > 1) {
      SlackPath sp;
      sp.path.nets = node.nets;
      sp.delay = node.cost.worst();
      sp.slack = clock - sp.delay;
      out.push_back(std::move(sp));
      // An output with further fanout may still extend to a deeper output;
      // fall through and keep expanding.
    }
    for (logic::NetId g : netlist.fanout(tip)) {
      const logic::Gate& gate = netlist.gate(g);
      Node next;
      next.cost = step(node.cost, library.timing(gate.kind),
                       edge_cause(gate.kind));
      next.nets = node.nets;
      next.nets.push_back(g);
      next.bound = bound_of(next.cost, g);
      if (std::isfinite(next.bound)) open.push(std::move(next));
    }
  }
  return out;
}

}  // namespace ppd::sta
