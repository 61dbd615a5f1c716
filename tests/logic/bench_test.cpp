#include "ppd/logic/bench.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "ppd/util/error.hpp"

namespace ppd::logic {
namespace {

TEST(BenchParser, ParsesC17) {
  const Netlist nl = c17();
  EXPECT_EQ(nl.inputs().size(), 5u);
  EXPECT_EQ(nl.outputs().size(), 2u);
  EXPECT_EQ(nl.gate_count(), 6u);
  // All gates are NAND2.
  for (NetId id = 0; id < nl.size(); ++id) {
    const Gate& g = nl.gate(id);
    if (g.kind == LogicKind::kInput) continue;
    EXPECT_EQ(g.kind, LogicKind::kNand);
    EXPECT_EQ(g.fanin.size(), 2u);
  }
}

TEST(BenchParser, C17TruthSpotChecks) {
  // 22 = NAND(10, 16), 10 = NAND(1,3), 16 = NAND(2, 11), 11 = NAND(3, 6).
  const Netlist nl = c17();
  // Inputs ordered as declared: 1, 2, 3, 6, 7.
  // Note the explicit bool return: vector<bool>'s operator[] yields a proxy
  // into the temporary, which must not escape the expression.
  auto out22 = [&](bool i1, bool i2, bool i3, bool i6, bool i7) -> bool {
    return nl.evaluate({i1, i2, i3, i6, i7})[nl.find("22")];
  };
  // All zero: 10 = 1, 11 = 1, 16 = NAND(0,1)=1 -> 22 = NAND(1,1) = 0.
  EXPECT_FALSE(out22(false, false, false, false, false));
  // 1=1,3=1 -> 10=0 -> 22=1 regardless of 16.
  EXPECT_TRUE(out22(true, false, true, false, false));
}

TEST(BenchParser, HandlesForwardReferencesAndComments) {
  const Netlist nl = parse_bench(
      "# comment\n"
      "INPUT(a)\n"
      "OUTPUT(y)\n"
      "y = NOT(m)\n"       // forward reference
      "m = BUF(a)\n");
  EXPECT_EQ(nl.gate_count(), 2u);
  EXPECT_EQ(nl.gate(nl.find("y")).kind, LogicKind::kNot);
}

TEST(BenchParser, AcceptsAllGateTypes) {
  const Netlist nl = parse_bench(
      "INPUT(a)\nINPUT(b)\nOUTPUT(z)\n"
      "g1 = AND(a, b)\n"
      "g2 = OR(a, b)\n"
      "g3 = XOR(g1, g2)\n"
      "g4 = XNOR(a, g3)\n"
      "g5 = NOR(g4, b)\n"
      "z = NAND(g5, a)\n");
  EXPECT_EQ(nl.gate_count(), 6u);
}

/// Pins the exact Netlist parse_bench builds: inputs in INPUT-declaration
/// order, gates in worklist order (definition lines scanned repeatedly,
/// each gate placed once its operands exist), outputs in first
/// OUTPUT-declaration order, canonical kinds for the aliases.
void expect_shape_netlist(const Netlist& nl) {
  struct Expected {
    const char* name;
    LogicKind kind;
    std::vector<NetId> fanin;
  };
  const Expected expected[] = {
      {"a", LogicKind::kInput, {}},
      {"b", LogicKind::kInput, {}},
      {"m", LogicKind::kBuf, {1}},
      {"g1", LogicKind::kNand, {0, 2}},
      {"g2", LogicKind::kNor, {3, 1, 0}},
      {"y", LogicKind::kNot, {4}},
  };
  ASSERT_EQ(nl.size(), std::size(expected));
  for (NetId id = 0; id < nl.size(); ++id) {
    EXPECT_EQ(nl.gate(id).name, expected[id].name) << id;
    EXPECT_EQ(nl.gate(id).kind, expected[id].kind) << id;
    EXPECT_EQ(nl.gate(id).fanin, expected[id].fanin) << id;
  }
  EXPECT_EQ(nl.inputs(), (std::vector<NetId>{0, 1}));
  EXPECT_EQ(nl.outputs(), (std::vector<NetId>{5, 3}));
}

constexpr const char* kShapeText =
    "# gate before its operand's INPUT line, forward references,\n"
    "# a duplicate OUTPUT and the BUFF/INV aliases\n"
    "g1 = NAND(a, m)\n"
    "INPUT(a)\n"
    "OUTPUT(y)\n"
    "INPUT(b)\n"
    "y = INV(g2)\n"
    "OUTPUT(g1)\n"
    "OUTPUT(y)\n"
    "m = BUFF(b)\n"
    "g2 = nor(g1, b, a)\n";

TEST(BenchParser, BuildsTheExactNetlistShape) {
  const Netlist nl = parse_bench(kShapeText);
  expect_shape_netlist(nl);
  EXPECT_EQ(nl.source(), "");

  const std::string path = ::testing::TempDir() + "/ppd_shape.bench";
  {
    std::ofstream f(path);
    f << kShapeText;
  }
  const Netlist from_file = load_bench_file(path);
  expect_shape_netlist(from_file);
  EXPECT_EQ(from_file.source(), path);
  std::remove(path.c_str());
}

TEST(BenchParser, Errors) {
  EXPECT_THROW(static_cast<void>(parse_bench("INPUT(a)\ny = FROB(a)\n")), ParseError);
  EXPECT_THROW(static_cast<void>(parse_bench("INPUT(a)\nOUTPUT(zz)\ny = NOT(a)\n")), ParseError);
  EXPECT_THROW(static_cast<void>(parse_bench("y = NOT(undefined_net)\n")), ParseError);
  EXPECT_THROW(static_cast<void>(parse_bench("INPUT(a)\ny = NOT(a\n")), ParseError);
  EXPECT_THROW(static_cast<void>(parse_bench("INPUT(a)\nINPUT(a)\n")), ParseError);
  EXPECT_THROW(static_cast<void>(parse_bench("INPUT(a)\na = NOT(a)\n")), ParseError);
}

TEST(BenchWriter, RoundTripsC17) {
  const Netlist nl = c17();
  const Netlist back = parse_bench(write_bench(nl));
  EXPECT_EQ(back.inputs().size(), nl.inputs().size());
  EXPECT_EQ(back.outputs().size(), nl.outputs().size());
  EXPECT_EQ(back.gate_count(), nl.gate_count());
  // Functional equivalence over all 32 input vectors.
  for (unsigned m = 0; m < 32; ++m) {
    std::vector<bool> in;
    for (unsigned b = 0; b < 5; ++b) in.push_back(((m >> b) & 1u) != 0);
    const auto v1 = nl.evaluate(in);
    const auto v2 = back.evaluate(in);
    for (NetId o : nl.outputs())
      EXPECT_EQ(v1[o], v2[back.find(nl.gate(o).name)]);
  }
}

TEST(Synthetic, MatchesRequestedShape) {
  SyntheticOptions opt;
  opt.inputs = 36;
  opt.outputs = 7;
  opt.gates = 160;
  const Netlist nl = synthetic_benchmark(opt);
  EXPECT_EQ(nl.inputs().size(), 36u);
  EXPECT_EQ(nl.outputs().size(), 7u);
  EXPECT_EQ(nl.gate_count(), 160u);
  EXPECT_GE(nl.depth(), 8u);  // deep enough for interesting paths
  EXPECT_NO_THROW(nl.topological_order());
}

TEST(Synthetic, DeterministicPerSeed) {
  SyntheticOptions opt;
  const std::string a = write_bench(synthetic_benchmark(opt));
  const std::string b = write_bench(synthetic_benchmark(opt));
  EXPECT_EQ(a, b);
  opt.seed = 433;
  EXPECT_NE(a, write_bench(synthetic_benchmark(opt)));
}

TEST(Synthetic, OnlyPrimitiveKinds) {
  const Netlist nl = synthetic_benchmark(SyntheticOptions{});
  for (NetId id = 0; id < nl.size(); ++id) {
    const LogicKind k = nl.gate(id).kind;
    EXPECT_TRUE(k == LogicKind::kInput || k == LogicKind::kNot ||
                k == LogicKind::kNand || k == LogicKind::kNor);
  }
}

}  // namespace
}  // namespace ppd::logic
