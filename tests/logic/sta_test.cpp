#include "ppd/logic/sta.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "ppd/logic/bench.hpp"
#include "ppd/util/error.hpp"

namespace ppd::logic {
namespace {

GateTimingLibrary flat_library(double delay = 100e-12) {
  GateTimingLibrary lib;
  GateTiming t;
  t.delay_rise = delay;
  t.delay_fall = delay;
  lib.set_default(t);
  for (LogicKind k : {LogicKind::kNot, LogicKind::kNand, LogicKind::kNor,
                      LogicKind::kBuf, LogicKind::kAnd, LogicKind::kOr})
    lib.set(k, t);
  return lib;
}

/// Chain with a short side branch:
///  a -> g0 -> g1 -> g2 -> out (critical, 4 levels incl. out gate)
///  b ----------------^ side input of g2's NAND partner "fast".
Netlist chain_with_branch() {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId g0 = nl.add_gate(LogicKind::kNot, "g0", {a});
  const NetId g1 = nl.add_gate(LogicKind::kNot, "g1", {g0});
  const NetId g2 = nl.add_gate(LogicKind::kNot, "g2", {g1});
  const NetId fast = nl.add_gate(LogicKind::kNot, "fast", {b});
  const NetId out = nl.add_gate(LogicKind::kNand, "out", {g2, fast});
  nl.mark_output(out);
  return nl;
}

TEST(Sta, ArrivalTimesAccumulate) {
  const Netlist nl = chain_with_branch();
  const StaResult sta = run_sta(nl, flat_library());
  EXPECT_DOUBLE_EQ(sta.arrival[nl.find("a")], 0.0);
  EXPECT_DOUBLE_EQ(sta.arrival[nl.find("g0")], 100e-12);
  EXPECT_DOUBLE_EQ(sta.arrival[nl.find("g2")], 300e-12);
  EXPECT_DOUBLE_EQ(sta.arrival[nl.find("fast")], 100e-12);
  EXPECT_DOUBLE_EQ(sta.arrival[nl.find("out")], 400e-12);
  EXPECT_DOUBLE_EQ(sta.critical_delay, 400e-12);
}

TEST(Sta, SlackZeroOnCriticalPathAtCriticalClock) {
  const Netlist nl = chain_with_branch();
  const StaResult sta = run_sta(nl, flat_library());
  for (const char* n : {"g0", "g1", "g2", "out"})
    EXPECT_NEAR(sta.slack_at(nl.find(n)), 0.0, 1e-18) << n;
  // The fast branch has two levels of spare time.
  EXPECT_NEAR(sta.slack_at(nl.find("fast")), 200e-12, 1e-18);
}

TEST(Sta, LargerClockAddsUniformSlack) {
  const Netlist nl = chain_with_branch();
  const StaResult sta = run_sta(nl, flat_library(), 600e-12);
  EXPECT_NEAR(sta.slack_at(nl.find("out")), 200e-12, 1e-18);
  EXPECT_NEAR(sta.slack_at(nl.find("fast")), 400e-12, 1e-18);
  EXPECT_DOUBLE_EQ(sta.clock_period, 600e-12);
}

TEST(Sta, SlackSitesSelectsNonCriticalGates) {
  const Netlist nl = chain_with_branch();
  const StaResult sta = run_sta(nl, flat_library());
  const auto sites = slack_sites(nl, sta, 150e-12);
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0], nl.find("fast"));
  // With an (epsilon-negative) threshold every gate qualifies — critical
  // gates sit at slack 0 modulo rounding.
  EXPECT_EQ(slack_sites(nl, sta, -1e-15).size(), nl.gate_count());
}

TEST(Sta, SyntheticBenchmarkHasSlackSpread) {
  // The premise of the paper: realistic circuits contain many gates with
  // substantial slack where small defects hide from delay testing.
  const Netlist nl = synthetic_benchmark(SyntheticOptions{});
  const StaResult sta = run_sta(nl, GateTimingLibrary::generic());
  EXPECT_GT(sta.critical_delay, 1e-9);  // ~20 levels
  const auto relaxed = slack_sites(nl, sta, 0.25 * sta.critical_delay);
  EXPECT_GT(relaxed.size(), nl.gate_count() / 10)
      << "expected a large non-critical population";
  // And the critical output itself has (near) zero slack.
  const auto crit = std::max_element(
      nl.outputs().begin(), nl.outputs().end(),
      [&](NetId x, NetId y) { return sta.arrival[x] < sta.arrival[y]; });
  EXPECT_LT(sta.slack_at(*crit), 1e-12);
}

TEST(Sta, InverterChainUsesAlternatingEdgeDelays) {
  // Polarity regression: through two inverters, a launched rising edge
  // falls at the first output (delay_fall) and rises again at the second
  // (delay_rise) — 120 + 60 = 180 ps either way, NOT 2 x max = 240 ps.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId g1 = nl.add_gate(LogicKind::kNot, "g1", {a});
  const NetId g2 = nl.add_gate(LogicKind::kNot, "g2", {g1});
  nl.mark_output(g2);
  GateTimingLibrary lib;
  GateTiming t;
  t.delay_rise = 120e-12;
  t.delay_fall = 60e-12;
  lib.set(LogicKind::kNot, t);
  const StaResult sta = run_sta(nl, lib);
  EXPECT_DOUBLE_EQ(sta.arrival_rise[g1], 120e-12);
  EXPECT_DOUBLE_EQ(sta.arrival_fall[g1], 60e-12);
  EXPECT_DOUBLE_EQ(sta.arrival_rise[g2], 60e-12 + 120e-12);
  EXPECT_DOUBLE_EQ(sta.arrival_fall[g2], 120e-12 + 60e-12);
  EXPECT_DOUBLE_EQ(sta.critical_delay, 180e-12);
  EXPECT_NEAR(sta.slack_at(a), 0.0, 1e-18);
}

TEST(Sta, XorClassGatesTakeEitherInputEdge) {
  // a -> NOT g1 (rise 60, fall 120) -> XOR-class x, with b the side input.
  // Either input edge of g1 may flip x, so both output edges start from
  // the worse g1 arrival (120 ps): x rises at 150 and falls at 130. The
  // same-polarity rule would give 90/130, the inverted one 150/70. Going
  // back, both g1 polarities owe the tighter x edge: required 1000 - 30,
  // so g1's slack is 970 - 120 = 850 ps (the same-polarity rule: 870).
  for (LogicKind kind : {LogicKind::kXor, LogicKind::kXnor}) {
    ASSERT_EQ(edge_cause(kind), EdgeCause::kEither) << logic_kind_name(kind);
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId b = nl.add_input("b");
    const NetId g1 = nl.add_gate(LogicKind::kNot, "g1", {a});
    const NetId x = nl.add_gate(kind, "x", {g1, b});
    nl.mark_output(x);
    GateTimingLibrary lib;
    GateTiming inv;
    inv.delay_rise = 60e-12;
    inv.delay_fall = 120e-12;
    lib.set(LogicKind::kNot, inv);
    GateTiming xor_class;
    xor_class.delay_rise = 30e-12;
    xor_class.delay_fall = 10e-12;
    lib.set(kind, xor_class);
    const StaResult sta = run_sta(nl, lib, 1000e-12);
    EXPECT_DOUBLE_EQ(sta.arrival_rise[x], 150e-12) << logic_kind_name(kind);
    EXPECT_DOUBLE_EQ(sta.arrival_fall[x], 130e-12) << logic_kind_name(kind);
    EXPECT_DOUBLE_EQ(sta.critical_delay, 150e-12);
    EXPECT_NEAR(sta.required[g1], 970e-12, 1e-18) << logic_kind_name(kind);
    EXPECT_NEAR(sta.slack_at(g1), 850e-12, 1e-18) << logic_kind_name(kind);
    EXPECT_NEAR(sta.slack_at(b), 970e-12, 1e-18) << logic_kind_name(kind);
  }
}

TEST(EdgeCauseMap, MatchesGateSemantics) {
  EXPECT_EQ(edge_cause(LogicKind::kBuf), EdgeCause::kSame);
  EXPECT_EQ(edge_cause(LogicKind::kAnd), EdgeCause::kSame);
  EXPECT_EQ(edge_cause(LogicKind::kOr), EdgeCause::kSame);
  EXPECT_EQ(edge_cause(LogicKind::kNot), EdgeCause::kInverted);
  EXPECT_EQ(edge_cause(LogicKind::kNand), EdgeCause::kInverted);
  EXPECT_EQ(edge_cause(LogicKind::kNor), EdgeCause::kInverted);
  EXPECT_EQ(edge_cause(LogicKind::kXor), EdgeCause::kEither);
  EXPECT_EQ(edge_cause(LogicKind::kXnor), EdgeCause::kEither);
}

TEST(Sta, SingleGateNetlist) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId g = nl.add_gate(LogicKind::kBuf, "g", {a});
  nl.mark_output(g);
  const StaResult sta = run_sta(nl, flat_library());
  EXPECT_DOUBLE_EQ(sta.critical_delay, 100e-12);
  EXPECT_NEAR(sta.slack_at(a), 0.0, 1e-18);
  EXPECT_NEAR(sta.slack_at(g), 0.0, 1e-18);
  ASSERT_EQ(slack_sites(nl, sta, -1e-15).size(), 1u);
}

TEST(Sta, GateReachingNoOutputClampsSlackToClock) {
  // `dead` feeds nothing that reaches an output: its required time stays
  // infinite, and the reported slack clamps against the clock period
  // instead of going infinite.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId g = nl.add_gate(LogicKind::kNot, "g", {a});
  const NetId dead = nl.add_gate(LogicKind::kNot, "dead", {b});
  (void)dead;
  nl.mark_output(g);
  const StaResult sta = run_sta(nl, flat_library(), 500e-12);
  EXPECT_TRUE(std::isinf(sta.required[nl.find("dead")]));
  EXPECT_NEAR(sta.slack_at(nl.find("dead")), 500e-12 - 100e-12, 1e-18);
  // slack_sites at a generous threshold picks it up (alongside the equally
  // slack output gate), not infinity-NaN.
  const auto sites = slack_sites(nl, sta, 300e-12);
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_TRUE(std::find(sites.begin(), sites.end(), nl.find("dead")) !=
              sites.end());
}

TEST(Sta, UsesWorstEdgeDelay) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId g = nl.add_gate(LogicKind::kNor, "g", {a, a});
  nl.mark_output(g);
  GateTimingLibrary lib;
  GateTiming t;
  t.delay_rise = 120e-12;
  t.delay_fall = 60e-12;
  lib.set(LogicKind::kNor, t);
  const StaResult sta = run_sta(nl, lib);
  EXPECT_DOUBLE_EQ(sta.critical_delay, 120e-12);
}

}  // namespace
}  // namespace ppd::logic
