#include "ppd/logic/netlist.hpp"

#include <algorithm>
#include <unordered_map>

#include "ppd/util/error.hpp"

namespace ppd::logic {

const char* logic_kind_name(LogicKind kind) {
  switch (kind) {
    case LogicKind::kInput: return "INPUT";
    case LogicKind::kBuf: return "BUF";
    case LogicKind::kNot: return "NOT";
    case LogicKind::kAnd: return "AND";
    case LogicKind::kOr: return "OR";
    case LogicKind::kNand: return "NAND";
    case LogicKind::kNor: return "NOR";
    case LogicKind::kXor: return "XOR";
    case LogicKind::kXnor: return "XNOR";
  }
  return "?";
}

bool logic_kind_inverting(LogicKind kind) {
  switch (kind) {
    case LogicKind::kNot:
    case LogicKind::kNand:
    case LogicKind::kNor:
    case LogicKind::kXnor: return true;
    default: return false;
  }
}

EdgeCause edge_cause(LogicKind kind) {
  switch (kind) {
    case LogicKind::kInput:
    case LogicKind::kBuf:
    case LogicKind::kAnd:
    case LogicKind::kOr: return EdgeCause::kSame;
    case LogicKind::kNot:
    case LogicKind::kNand:
    case LogicKind::kNor: return EdgeCause::kInverted;
    case LogicKind::kXor:
    case LogicKind::kXnor: return EdgeCause::kEither;
  }
  return EdgeCause::kSame;
}

std::optional<bool> controlling_value(LogicKind kind) {
  switch (kind) {
    case LogicKind::kAnd:
    case LogicKind::kNand: return false;
    case LogicKind::kOr:
    case LogicKind::kNor: return true;
    default: return std::nullopt;  // NOT/BUF/XOR have none
  }
}

bool eval_gate(LogicKind kind, const std::vector<bool>& inputs) {
  const auto all = [&](bool v) {
    return std::all_of(inputs.begin(), inputs.end(), [&](bool b) { return b == v; });
  };
  const auto any = [&](bool v) {
    return std::any_of(inputs.begin(), inputs.end(), [&](bool b) { return b == v; });
  };
  switch (kind) {
    case LogicKind::kInput:
      throw PreconditionError("cannot evaluate an INPUT pseudo-gate");
    case LogicKind::kBuf:
      PPD_REQUIRE(inputs.size() == 1, "BUF takes one input");
      return inputs[0];
    case LogicKind::kNot:
      PPD_REQUIRE(inputs.size() == 1, "NOT takes one input");
      return !inputs[0];
    case LogicKind::kAnd:
      PPD_REQUIRE(!inputs.empty(), "AND needs inputs");
      return all(true);
    case LogicKind::kOr:
      PPD_REQUIRE(!inputs.empty(), "OR needs inputs");
      return any(true);
    case LogicKind::kNand:
      PPD_REQUIRE(!inputs.empty(), "NAND needs inputs");
      return !all(true);
    case LogicKind::kNor:
      PPD_REQUIRE(!inputs.empty(), "NOR needs inputs");
      return !any(true);
    case LogicKind::kXor:
    case LogicKind::kXnor: {
      PPD_REQUIRE(!inputs.empty(), "XOR needs inputs");
      bool acc = false;
      for (bool b : inputs) acc = acc != b;
      return kind == LogicKind::kXor ? acc : !acc;
    }
  }
  throw PreconditionError("unknown gate kind");
}

Tri tri_from_bool(bool b) { return b ? Tri::k1 : Tri::k0; }

Tri eval_gate_ternary(LogicKind kind, const std::vector<Tri>& inputs) {
  PPD_REQUIRE(!inputs.empty(), "gate needs inputs");
  const auto count = [&](Tri v) {
    std::size_t n = 0;
    for (Tri t : inputs) n += t == v ? 1 : 0;
    return n;
  };
  const auto invert = [](Tri t) {
    if (t == Tri::kX) return Tri::kX;
    return t == Tri::k0 ? Tri::k1 : Tri::k0;
  };
  switch (kind) {
    case LogicKind::kInput:
      throw PreconditionError("cannot evaluate an INPUT pseudo-gate");
    case LogicKind::kBuf:
      PPD_REQUIRE(inputs.size() == 1, "BUF takes one input");
      return inputs[0];
    case LogicKind::kNot:
      PPD_REQUIRE(inputs.size() == 1, "NOT takes one input");
      return invert(inputs[0]);
    case LogicKind::kAnd:
    case LogicKind::kNand: {
      Tri v = Tri::kX;
      if (count(Tri::k0) > 0)
        v = Tri::k0;  // a controlling 0 decides regardless of Xs
      else if (count(Tri::k1) == inputs.size())
        v = Tri::k1;
      return kind == LogicKind::kAnd ? v : invert(v);
    }
    case LogicKind::kOr:
    case LogicKind::kNor: {
      Tri v = Tri::kX;
      if (count(Tri::k1) > 0)
        v = Tri::k1;
      else if (count(Tri::k0) == inputs.size())
        v = Tri::k0;
      return kind == LogicKind::kOr ? v : invert(v);
    }
    case LogicKind::kXor:
    case LogicKind::kXnor: {
      if (count(Tri::kX) > 0) return Tri::kX;  // any unknown poisons parity
      bool acc = false;
      for (Tri t : inputs) acc = acc != (t == Tri::k1);
      const Tri v = acc ? Tri::k1 : Tri::k0;
      return kind == LogicKind::kXor ? v : invert(v);
    }
  }
  throw PreconditionError("unknown gate kind");
}

NetId Netlist::add_input(const std::string& name) {
  Gate g;
  g.kind = LogicKind::kInput;
  g.name = name;
  gates_.push_back(std::move(g));
  fanout_.emplace_back();
  is_output_.push_back(0);
  inputs_.push_back(gates_.size() - 1);
  return gates_.size() - 1;
}

NetId Netlist::add_gate(LogicKind kind, const std::string& name,
                        std::vector<NetId> fanin) {
  PPD_REQUIRE(kind != LogicKind::kInput, "use add_input for primary inputs");
  PPD_REQUIRE(!fanin.empty(), "gate needs fanin");
  for (NetId f : fanin)
    PPD_REQUIRE(f < gates_.size(), "fanin id out of range");
  const NetId id = gates_.size();
  Gate g;
  g.kind = kind;
  g.name = name;
  g.fanin = std::move(fanin);
  gates_.push_back(std::move(g));
  fanout_.emplace_back();
  is_output_.push_back(0);
  for (NetId f : gates_.back().fanin) fanout_[f].push_back(id);
  return id;
}

void Netlist::mark_output(NetId net) {
  PPD_REQUIRE(net < gates_.size(), "net id out of range");
  if (is_output_[net]) return;
  is_output_[net] = 1;
  outputs_.push_back(net);
}

const Gate& Netlist::gate(NetId id) const {
  PPD_REQUIRE(id < gates_.size(), "net id out of range");
  return gates_[id];
}

const std::vector<NetId>& Netlist::fanout(NetId id) const {
  PPD_REQUIRE(id < fanout_.size(), "net id out of range");
  return fanout_[id];
}

bool Netlist::is_output(NetId id) const {
  PPD_REQUIRE(id < gates_.size(), "net id out of range");
  return is_output_[id] != 0;
}

NetId Netlist::find(const std::string& name) const {
  for (NetId i = 0; i < gates_.size(); ++i)
    if (gates_[i].name == name) return i;
  throw PreconditionError("unknown net: " + name);
}

bool Netlist::has(const std::string& name) const {
  return std::any_of(gates_.begin(), gates_.end(),
                     [&](const Gate& g) { return g.name == name; });
}

std::vector<NetId> Netlist::topological_order() const {
  std::vector<std::size_t> pending(gates_.size(), 0);
  std::vector<NetId> ready;
  for (NetId i = 0; i < gates_.size(); ++i) {
    pending[i] = gates_[i].fanin.size();
    if (pending[i] == 0) ready.push_back(i);
  }
  std::vector<NetId> order;
  order.reserve(gates_.size());
  while (!ready.empty()) {
    const NetId id = ready.back();
    ready.pop_back();
    order.push_back(id);
    for (NetId f : fanout_[id])
      if (--pending[f] == 0) ready.push_back(f);
  }
  PPD_REQUIRE(order.size() == gates_.size(), "netlist contains a cycle");
  return order;
}

std::vector<bool> Netlist::evaluate(const std::vector<bool>& pi_values) const {
  PPD_REQUIRE(pi_values.size() == inputs_.size(), "PI value arity mismatch");
  std::vector<bool> value(gates_.size(), false);
  for (std::size_t i = 0; i < inputs_.size(); ++i)
    value[inputs_[i]] = pi_values[i];
  for (NetId id : topological_order()) {
    const Gate& g = gates_[id];
    if (g.kind == LogicKind::kInput) continue;
    std::vector<bool> in;
    in.reserve(g.fanin.size());
    for (NetId f : g.fanin) in.push_back(value[f]);
    value[id] = eval_gate(g.kind, in);
  }
  return value;
}

std::vector<Tri> Netlist::evaluate_ternary(const std::vector<Tri>& pi_values) const {
  PPD_REQUIRE(pi_values.size() == inputs_.size(), "PI value arity mismatch");
  std::vector<Tri> value(gates_.size(), Tri::kX);
  for (std::size_t i = 0; i < inputs_.size(); ++i)
    value[inputs_[i]] = pi_values[i];
  for (NetId id : topological_order()) {
    const Gate& g = gates_[id];
    if (g.kind == LogicKind::kInput) continue;
    std::vector<Tri> in;
    in.reserve(g.fanin.size());
    for (NetId f : g.fanin) in.push_back(value[f]);
    value[id] = eval_gate_ternary(g.kind, in);
  }
  return value;
}

std::size_t Netlist::gate_count() const {
  return gates_.size() - inputs_.size();
}

std::size_t Netlist::depth() const {
  std::vector<std::size_t> level(gates_.size(), 0);
  std::size_t deepest = 0;
  for (NetId id : topological_order()) {
    const Gate& g = gates_[id];
    for (NetId f : g.fanin) level[id] = std::max(level[id], level[f] + 1);
    deepest = std::max(deepest, level[id]);
  }
  return deepest;
}

}  // namespace ppd::logic
