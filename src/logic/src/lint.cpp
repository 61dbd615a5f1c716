#include "ppd/logic/lint.hpp"

#include <algorithm>
#include <sstream>

namespace ppd::logic {

lint::Report lint_netlist(const Netlist& netlist) {
  lint::NetGraph graph;
  graph.source = netlist.source();
  graph.nodes.reserve(netlist.size());
  for (NetId id = 0; id < netlist.size(); ++id) {
    const Gate& g = netlist.gate(id);
    lint::GraphNode node;
    node.name = g.name;
    node.kind = logic_kind_name(g.kind);
    node.fanin.assign(g.fanin.begin(), g.fanin.end());
    node.is_input = g.kind == LogicKind::kInput;
    node.is_output = netlist.is_output(id);
    node.driven = true;  // a Netlist is single-driven by construction
    node.driver_count = 1;
    graph.nodes.push_back(std::move(node));
  }
  return lint::lint_graph(graph);
}

namespace {

std::string format_ps(double seconds) {
  std::ostringstream os;
  os << seconds * 1e12 << " ps";
  return os.str();
}

}  // namespace

lint::Report lint_pulse_test(const Netlist& netlist,
                             const GateTimingLibrary& library,
                             const PulseTest& test) {
  using lint::Severity;
  lint::Report report;
  const std::string subject = netlist.source().empty()
                                  ? std::string("pulse test")
                                  : "pulse test on " + netlist.source();

  // PPD206 — the PI vector must cover every input.
  if (test.vector.size() != netlist.inputs().size()) {
    report.add(Severity::kError, "PPD206", subject,
               "PI vector has " + std::to_string(test.vector.size()) +
                   " entries for " + std::to_string(netlist.inputs().size()) +
                   " primary inputs");
    return report;  // nothing below can be evaluated
  }

  // PPD202 — structural soundness of the path.
  bool path_ok = !test.path.nets.empty();
  if (!path_ok) {
    report.add(Severity::kError, "PPD202", subject, "path is empty");
  } else {
    for (NetId n : test.path.nets)
      if (n >= netlist.size()) {
        report.add(Severity::kError, "PPD202", subject,
                   "path references net id " + std::to_string(n) +
                       " outside the netlist");
        path_ok = false;
      }
  }
  if (path_ok) {
    if (netlist.gate(test.path.input()).kind != LogicKind::kInput) {
      report.add(Severity::kError, "PPD202",
                 netlist.gate(test.path.input()).name,
                 "path does not start at a primary input",
                 "the pulse generator attaches to a primary input");
      path_ok = false;
    }
    if (!netlist.is_output(test.path.output())) {
      report.add(Severity::kError, "PPD202",
                 netlist.gate(test.path.output()).name,
                 "path does not end at a primary output",
                 "the transition sensor observes a primary output");
      path_ok = false;
    }
    for (std::size_t i = 0; path_ok && i + 1 < test.path.nets.size(); ++i) {
      const Gate& g = netlist.gate(test.path.nets[i + 1]);
      if (std::find(g.fanin.begin(), g.fanin.end(), test.path.nets[i]) ==
          g.fanin.end()) {
        report.add(Severity::kError, "PPD202", g.name,
                   "consecutive path nets '" +
                       netlist.gate(test.path.nets[i]).name + "' -> '" +
                       g.name + "' are not connected");
        path_ok = false;
      }
    }
  }

  // PPD203 — pulse widths must be positive.
  if (test.w_in <= 0.0)
    report.add(Severity::kError, "PPD203", subject,
               "injected width w_in = " + format_ps(test.w_in) +
                   " is not positive");
  if (test.w_th <= 0.0)
    report.add(Severity::kError, "PPD203", subject,
               "sensor threshold w_th = " + format_ps(test.w_th) +
                   " is not positive");

  if (!path_ok) return report;

  // PPD201 — every side input must rest at a non-controlling value under
  // both phases of the launching input (the pulse visits both values).
  const std::size_t input_index = static_cast<std::size_t>(
      std::distance(netlist.inputs().begin(),
                    std::find(netlist.inputs().begin(), netlist.inputs().end(),
                              test.path.input())));
  for (int phase = 0; phase < 2; ++phase) {
    std::vector<bool> pis = test.vector;
    if (phase == 1) pis[input_index] = !pis[input_index];
    const std::vector<bool> value = netlist.evaluate(pis);
    for (std::size_t i = 1; i < test.path.nets.size(); ++i) {
      const Gate& g = netlist.gate(test.path.nets[i]);
      const auto cv = controlling_value(g.kind);
      if (!cv.has_value()) continue;
      for (NetId f : g.fanin) {
        if (f == test.path.nets[i - 1]) continue;
        if (value[f] == *cv)
          report.add(Severity::kError, "PPD201", g.name,
                     "side input '" + netlist.gate(f).name + "' of " +
                         logic_kind_name(g.kind) + " gate '" + g.name +
                         "' sits at its controlling value (" +
                         (*cv ? "1" : "0") + ") in the " +
                         (phase == 0 ? "rest" : "pulsed") + " phase",
                     "the pulse is blocked; re-justify the side inputs");
      }
    }
  }

  if (test.w_in <= 0.0 || test.w_th <= 0.0) return report;

  // PPD204/PPD205/PPD207 — width consistency against the attenuation model.
  const FaultSimulator sim(netlist, library);
  const double fault_free = sim.response(test, nullptr);
  if (fault_free < test.w_th) {
    report.add(Severity::kError, "PPD204", subject,
               "fault-free response " + format_ps(fault_free) +
                   " is below the sensor threshold " + format_ps(test.w_th),
               "the test would reject a defect-free machine; lower w_th or "
               "widen w_in");
  } else if (fault_free > 0.0 && (fault_free - test.w_th) / fault_free < 0.10) {
    report.add(Severity::kWarning, "PPD205", subject,
               "detection margin (fault-free " + format_ps(fault_free) +
                   " vs w_th " + format_ps(test.w_th) + ") is below 10%",
               "process variation may cause false positives");
  }
  double onset = 0.0;
  for (LogicKind kind : path_kinds(netlist, test.path))
    onset = std::max(onset, library.timing(kind).w_pass);
  if (test.w_in < onset)
    report.add(Severity::kWarning, "PPD207", subject,
               "w_in = " + format_ps(test.w_in) +
                   " is below the path's asymptotic onset " + format_ps(onset),
               "calibrate w_in at the asymptotic onset (Sect. 5)");
  return report;
}

}  // namespace ppd::logic
