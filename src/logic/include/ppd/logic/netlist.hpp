// Gate-level netlist for the logic-level pulse-propagation fault simulator
// the paper announces in its conclusions. Read from ISCAS-style .bench text
// or produced by the synthetic benchmark generator.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace ppd::logic {

enum class LogicKind {
  kInput,  // primary input pseudo-gate
  kBuf,
  kNot,
  kAnd,
  kOr,
  kNand,
  kNor,
  kXor,
  kXnor,
};

[[nodiscard]] const char* logic_kind_name(LogicKind kind);
[[nodiscard]] bool logic_kind_inverting(LogicKind kind);

/// How a gate's output edge polarity relates to the input edge causing it.
enum class EdgeCause {
  kSame,      ///< BUF/AND/OR: a rising input edge gives a rising output edge
  kInverted,  ///< NOT/NAND/NOR: a rising input edge gives a falling one
  kEither,    ///< XOR/XNOR: any input edge may give either output edge
};

[[nodiscard]] EdgeCause edge_cause(LogicKind kind);

/// Controlling input value, if the kind has one (AND/NAND: 0, OR/NOR: 1).
[[nodiscard]] std::optional<bool> controlling_value(LogicKind kind);

/// Boolean evaluation.
[[nodiscard]] bool eval_gate(LogicKind kind, const std::vector<bool>& inputs);

/// Three-valued logic (0 / 1 / unknown) for reasoning about partially
/// specified vectors: a net is k0/k1 only when every completion of the X
/// inputs yields that value under the standard pessimistic calculus.
enum class Tri : unsigned char { k0, k1, kX };

[[nodiscard]] Tri tri_from_bool(bool b);
[[nodiscard]] Tri eval_gate_ternary(LogicKind kind, const std::vector<Tri>& inputs);

using NetId = std::size_t;

struct Gate {
  LogicKind kind = LogicKind::kInput;
  std::string name;              ///< also the output net name
  std::vector<NetId> fanin;      ///< driving gates (by id)
};

/// A combinational netlist. Gate ids double as net ids (single-output
/// gates, ISCAS convention).
class Netlist {
 public:
  /// Add a primary input. Returns its net id.
  NetId add_input(const std::string& name);
  /// Add a gate; fanin ids must already exist.
  NetId add_gate(LogicKind kind, const std::string& name,
                 std::vector<NetId> fanin);
  /// Mark an existing net as primary output.
  void mark_output(NetId net);

  [[nodiscard]] std::size_t size() const { return gates_.size(); }
  [[nodiscard]] const Gate& gate(NetId id) const;
  [[nodiscard]] const std::vector<NetId>& inputs() const { return inputs_; }
  [[nodiscard]] const std::vector<NetId>& outputs() const { return outputs_; }
  [[nodiscard]] const std::vector<NetId>& fanout(NetId id) const;
  [[nodiscard]] bool is_output(NetId id) const;

  [[nodiscard]] NetId find(const std::string& name) const;
  [[nodiscard]] bool has(const std::string& name) const;

  /// Gate ids in topological order (inputs first). Throws on cycles.
  [[nodiscard]] std::vector<NetId> topological_order() const;

  /// Full functional evaluation: values for every net given PI values
  /// (ordered as inputs()).
  [[nodiscard]] std::vector<bool> evaluate(const std::vector<bool>& pi_values) const;

  /// Three-valued evaluation with possibly-unknown primary inputs.
  [[nodiscard]] std::vector<Tri> evaluate_ternary(
      const std::vector<Tri>& pi_values) const;

  /// Number of gates that are not primary inputs.
  [[nodiscard]] std::size_t gate_count() const;
  /// Longest input-to-output depth in gate levels.
  [[nodiscard]] std::size_t depth() const;

  /// Where this netlist came from (file path, "<c17>", ...). Used by lint
  /// diagnostics and sweep error context; empty when unknown.
  void set_source(std::string source) { source_ = std::move(source); }
  [[nodiscard]] const std::string& source() const { return source_; }

 private:
  std::string source_;
  std::vector<Gate> gates_;
  std::vector<std::vector<NetId>> fanout_;
  std::vector<NetId> inputs_;
  std::vector<NetId> outputs_;
  std::vector<char> is_output_;
};

}  // namespace ppd::logic
