#include "ppd/lint/graph.hpp"

#include <algorithm>
#include <map>
#include <sstream>

namespace ppd::lint {

std::string NetGraph::where(std::size_t i) const {
  const GraphNode& n = nodes[i];
  if (n.line > 0 && !source.empty())
    return source + ":" + std::to_string(n.line);
  if (n.line > 0) return "line " + std::to_string(n.line);
  return n.name;
}

namespace {

/// Fanout above this raises PPD008.
constexpr std::size_t kMaxFanout = 32;

/// Iterative Tarjan strongly-connected components over the fanin graph.
/// Returns every SCC with more than one node (single-node self-loops are
/// returned too): each is a combinational cycle.
std::vector<std::vector<std::size_t>> combinational_cycles(const NetGraph& g) {
  const std::size_t n = g.nodes.size();
  std::vector<int> index(n, -1), lowlink(n, 0);
  std::vector<char> on_stack(n, 0);
  std::vector<std::size_t> stack;
  std::vector<std::vector<std::size_t>> sccs;
  int next_index = 0;

  struct Frame {
    std::size_t node;
    std::size_t edge;  // next fanin edge to visit
  };
  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != -1) continue;
    std::vector<Frame> frames{{root, 0}};
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = 1;
    while (!frames.empty()) {
      Frame& f = frames.back();
      const auto& fanin = g.nodes[f.node].fanin;
      if (f.edge < fanin.size()) {
        const std::size_t child = fanin[f.edge++];
        if (index[child] == -1) {
          index[child] = lowlink[child] = next_index++;
          stack.push_back(child);
          on_stack[child] = 1;
          frames.push_back({child, 0});
        } else if (on_stack[child]) {
          lowlink[f.node] = std::min(lowlink[f.node], index[child]);
        }
        continue;
      }
      // Node finished: pop an SCC when it is a root.
      if (lowlink[f.node] == index[f.node]) {
        std::vector<std::size_t> scc;
        for (;;) {
          const std::size_t v = stack.back();
          stack.pop_back();
          on_stack[v] = 0;
          scc.push_back(v);
          if (v == f.node) break;
        }
        const bool self_loop =
            scc.size() == 1 &&
            std::find(fanin.begin(), fanin.end(), f.node) != fanin.end();
        if (scc.size() > 1 || self_loop) {
          std::reverse(scc.begin(), scc.end());
          sccs.push_back(std::move(scc));
        }
      }
      const std::size_t done = f.node;
      frames.pop_back();
      if (!frames.empty())
        lowlink[frames.back().node] =
            std::min(lowlink[frames.back().node], lowlink[done]);
    }
  }
  return sccs;
}

std::string join_names(const NetGraph& g, const std::vector<std::size_t>& ids,
                       std::size_t limit = 8) {
  std::string out;
  for (std::size_t k = 0; k < ids.size() && k < limit; ++k) {
    if (k != 0) out += " -> ";
    out += g.nodes[ids[k]].name;
  }
  if (ids.size() > limit) out += " -> ... (" + std::to_string(ids.size()) + " nets)";
  return out;
}

}  // namespace

Report lint_graph(const NetGraph& graph) {
  Report report;
  const std::size_t n = graph.nodes.size();

  std::size_t input_count = 0, output_count = 0;
  std::vector<std::vector<std::size_t>> fanout(n);
  for (std::size_t i = 0; i < n; ++i) {
    const GraphNode& node = graph.nodes[i];
    input_count += node.is_input ? 1 : 0;
    output_count += node.is_output ? 1 : 0;
    for (std::size_t f : node.fanin) fanout[f].push_back(i);
  }

  if (input_count == 0)
    report.add(Severity::kError, "PPD011", graph.source,
               "netlist declares no primary inputs",
               "add INPUT(...) declarations");
  if (output_count == 0)
    report.add(Severity::kError, "PPD010", graph.source,
               "netlist declares no primary outputs",
               "add OUTPUT(...) declarations");

  // PPD001 — combinational cycles.
  for (const auto& scc : combinational_cycles(graph))
    report.add(Severity::kError, "PPD001", graph.where(scc.front()),
               "combinational cycle: " + join_names(graph, scc),
               "break the loop with a register or rewire the feedback");

  for (std::size_t i = 0; i < n; ++i) {
    const GraphNode& node = graph.nodes[i];
    // PPD002 — referenced but never driven.
    if (!node.driven && !node.is_input && !fanout[i].empty()) {
      std::string users = graph.nodes[fanout[i].front()].name;
      if (fanout[i].size() > 1)
        users += " and " + std::to_string(fanout[i].size() - 1) + " more";
      report.add(Severity::kError, "PPD002", node.name,
                 "net '" + node.name + "' is used by " + users +
                     " but never driven",
                 "declare it as INPUT(...) or define it with a gate");
    }
    // PPD003 — more than one driver.
    if (node.driver_count > 1)
      report.add(Severity::kError, "PPD003", graph.where(i),
                 "net '" + node.name + "' has " +
                     std::to_string(node.driver_count) + " drivers",
                 "every net needs exactly one INPUT declaration or gate");
    // PPD004 — primary input feeding nothing.
    if (node.is_input && fanout[i].empty() && !node.is_output)
      report.add(Severity::kWarning, "PPD004", graph.where(i),
                 "primary input '" + node.name + "' drives no gate",
                 "remove the INPUT declaration or connect it");
  }

  // PPD005/PPD006 — reachability in both directions. Undriven placeholder
  // nets are not treated as sources: a gate fed only through them is still
  // unreachable from the primary inputs.
  std::vector<char> from_pi(n, 0), to_po(n, 0);
  {
    std::vector<std::size_t> work;
    for (std::size_t i = 0; i < n; ++i)
      if (graph.nodes[i].is_input) {
        from_pi[i] = 1;
        work.push_back(i);
      }
    while (!work.empty()) {
      const std::size_t v = work.back();
      work.pop_back();
      for (std::size_t w : fanout[v])
        if (!from_pi[w]) {
          // A gate is PI-reachable as soon as any fanin is: pulses enter
          // through one input, the rest are side inputs.
          from_pi[w] = 1;
          work.push_back(w);
        }
    }
    for (std::size_t i = 0; i < n; ++i)
      if (graph.nodes[i].is_output) {
        to_po[i] = 1;
        work.push_back(i);
      }
    while (!work.empty()) {
      const std::size_t v = work.back();
      work.pop_back();
      for (std::size_t w : graph.nodes[v].fanin)
        if (!to_po[w]) {
          to_po[w] = 1;
          work.push_back(w);
        }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const GraphNode& node = graph.nodes[i];
    if (!node.driven || node.is_input) continue;  // reported above / N/A
    if (!from_pi[i])
      report.add(Severity::kWarning, "PPD006", graph.where(i),
                 "gate '" + node.name +
                     "' is unreachable from every primary input",
                 "no test stimulus can exercise it");
    if (!to_po[i])
      report.add(Severity::kWarning, "PPD005", graph.where(i),
                 "gate '" + node.name + "' cannot reach any primary output",
                 "dead logic: no fault on it is observable");
  }

  // PPD008 — excessive fanout; PPD007 — histogram note.
  std::map<std::size_t, std::size_t> histogram;
  std::size_t max_seen = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!graph.nodes[i].driven && !graph.nodes[i].is_input) continue;
    const std::size_t deg = fanout[i].size();
    ++histogram[deg];
    max_seen = std::max(max_seen, deg);
    if (deg > kMaxFanout)
      report.add(Severity::kWarning, "PPD008", graph.where(i),
                 "net '" + graph.nodes[i].name + "' fans out to " +
                     std::to_string(deg) + " gates (limit " +
                     std::to_string(kMaxFanout) + ")",
                 "buffer the net; pulse attenuation grows with load");
  }
  if (n > 0) {
    std::ostringstream os;
    os << "fanout histogram (fanout:nets)";
    for (const auto& [deg, count] : histogram) os << ' ' << deg << ':' << count;
    os << ", max " << max_seen;
    report.add(Severity::kNote, "PPD007", graph.source, os.str());
  }

  return report;
}

}  // namespace ppd::lint
