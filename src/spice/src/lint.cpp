#include "ppd/spice/lint.hpp"

#include "ppd/spice/device.hpp"

namespace ppd::spice {

namespace {

lint::ElecGraph to_lint_graph(const Circuit& circuit) {
  lint::ElecGraph graph;
  graph.source = "circuit";
  graph.node_names.reserve(circuit.node_count());
  for (std::size_t n = 0; n < circuit.node_count(); ++n)
    graph.node_names.push_back(circuit.node_name(static_cast<NodeId>(n)));

  for (const auto& dev : circuit.devices()) {
    lint::ElecDevice d;
    d.name = dev->name();
    d.nodes.assign(dev->nodes().begin(), dev->nodes().end());
    if (const auto* r = dynamic_cast<const Resistor*>(dev.get())) {
      d.kind = lint::ElecKind::kResistor;
      d.value = r->resistance();
    } else if (const auto* c = dynamic_cast<const Capacitor*>(dev.get())) {
      d.kind = lint::ElecKind::kCapacitor;
      d.value = c->capacitance();
    } else if (dynamic_cast<const VoltageSource*>(dev.get()) != nullptr) {
      d.kind = lint::ElecKind::kVsource;
    } else if (const auto* m = dynamic_cast<const Mosfet*>(dev.get())) {
      const MosParams& p = m->params();
      d.kind = lint::ElecKind::kMosfet;
      d.w = p.w;
      d.l = p.l;
      d.kp = p.kp;
      d.vt0 = p.vt0;
      d.is_pmos = p.type == MosType::kPmos;
    } else {
      d.kind = lint::ElecKind::kIsource;
    }
    graph.devices.push_back(std::move(d));
  }
  return graph;
}

}  // namespace

void validate_circuit(const Circuit& circuit, const std::string& subject) {
  lint::lint_elec(to_lint_graph(circuit)).throw_on_error(subject);
}

}  // namespace ppd::spice
