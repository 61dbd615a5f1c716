#include "ppd/core/measure.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>

#include "ppd/cache/solve_cache.hpp"
#include "ppd/resil/faultplan.hpp"
#include "ppd/spice/analysis.hpp"
#include "ppd/util/error.hpp"

namespace ppd::core {
namespace {

PathFactory small_factory(std::size_t n = 3) {
  PathFactory f;
  f.options.kinds.assign(n, cells::GateKind::kInv);
  return f;
}

TEST(Linspace, EndpointsAndSpacing) {
  const auto v = linspace(1.0, 3.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v.front(), 1.0);
  EXPECT_DOUBLE_EQ(v.back(), 3.0);
  EXPECT_DOUBLE_EQ(v[2], 2.0);
  EXPECT_THROW(static_cast<void>(linspace(1.0, 3.0, 1)), PreconditionError);
  EXPECT_THROW(static_cast<void>(linspace(3.0, 1.0, 5)), PreconditionError);
}

TEST(Logspace, EndpointsAndGrowth) {
  const auto v = logspace(1.0, 100.0, 3);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_NEAR(v[0], 1.0, 1e-12);
  EXPECT_NEAR(v[1], 10.0, 1e-9);
  EXPECT_NEAR(v[2], 100.0, 1e-9);
  EXPECT_THROW(static_cast<void>(logspace(0.0, 1.0, 3)), PreconditionError);
}

TEST(SampleRng, DeterministicPerIndex) {
  mc::Rng a = sample_rng(7, 3);
  mc::Rng b = sample_rng(7, 3);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  mc::Rng c = sample_rng(7, 4);
  EXPECT_NE(sample_rng(7, 3).next_u64(), c.next_u64());
}

TEST(MakeInstance, FaultFreeHasNoInjectedHandle) {
  const PathFactory f = small_factory();
  PathInstance inst = make_instance(f, 0.0, nullptr);
  EXPECT_FALSE(inst.fault.has_value());
  EXPECT_EQ(inst.path.length(), 3u);
}

TEST(MakeInstance, FaultSpecInjectsWhenResistancePositive) {
  PathFactory f = small_factory();
  faults::PathFaultSpec spec;
  spec.kind = faults::FaultKind::kExternalRopOutput;
  spec.stage = 1;
  f.fault = spec;
  PathInstance faulty = make_instance(f, 5e3, nullptr);
  ASSERT_TRUE(faulty.fault.has_value());
  // Zero resistance still builds fault-free even with a spec present.
  PathInstance clean = make_instance(f, 0.0, nullptr);
  EXPECT_FALSE(clean.fault.has_value());
}

TEST(PathDelay, PositiveAndPolarityConsistent) {
  const PathFactory f = small_factory();
  SimSettings sim;
  PathInstance a = make_instance(f, 0.0, nullptr);
  const auto d_rise = path_delay(a.path, true, sim);
  PathInstance b = make_instance(f, 0.0, nullptr);
  const auto d_fall = path_delay(b.path, false, sim);
  ASSERT_TRUE(d_rise.has_value());
  ASSERT_TRUE(d_fall.has_value());
  EXPECT_GT(*d_rise, 0.0);
  EXPECT_GT(*d_fall, 0.0);
  EXPECT_LT(*d_rise, 1e-9);
  EXPECT_LT(*d_fall, 1e-9);
}

TEST(OutputPulseWidth, BothKindsPropagateWidePulses) {
  const PathFactory f = small_factory();
  SimSettings sim;
  PathInstance a = make_instance(f, 0.0, nullptr);
  const auto w_h = output_pulse_width(a.path, PulseKind::kH, 0.5e-9, sim);
  PathInstance b = make_instance(f, 0.0, nullptr);
  const auto w_l = output_pulse_width(b.path, PulseKind::kL, 0.5e-9, sim);
  ASSERT_TRUE(w_h.has_value());
  ASSERT_TRUE(w_l.has_value());
  EXPECT_NEAR(*w_h, 0.5e-9, 0.2e-9);
  EXPECT_NEAR(*w_l, 0.5e-9, 0.2e-9);
}

TEST(MakeTransientOptions, OneBudgetCoversBothPhases) {
  // Regression pin for the double-budget bug: setting sim.budget_seconds
  // used to grant the OP phase a second full-length deadline on top of the
  // transient's, letting a "budgeted" solve run for 2x its budget. The OP
  // now spends from the transient's own deadline (op.budget_seconds 0).
  const PathFactory f = small_factory();
  PathInstance inst = make_instance(f, 0.0, nullptr);
  SimSettings sim;
  sim.budget_seconds = 1.5;
  const spice::TransientOptions opt =
      make_transient_options(sim, 1e-9, inst.path);
  EXPECT_DOUBLE_EQ(opt.budget_seconds, 1.5);
  EXPECT_DOUBLE_EQ(opt.op.budget_seconds, 0.0);
  EXPECT_DOUBLE_EQ(opt.t_stop, 1e-9);
  ASSERT_EQ(opt.probe.size(), 2u);
}

TEST(MakeTransientOptions, TransientBudgetGovernsTheOpPhase) {
  // With an (effectively pre-expired) transient budget, the FIRST phase to
  // notice must be the operating point — proof that it draws from the
  // shared deadline rather than owning an unlimited one. Warm-starting is
  // switched off so a cached OP cannot skip the phase under test.
  const PathFactory f = small_factory();
  PathInstance inst = make_instance(f, 0.0, nullptr);
  inst.path.drive_pulse(true, 0.3e-9, 0.3e-9);
  SimSettings sim;
  sim.budget_seconds = 1e-9;
  const bool was_enabled = cache::cache_enabled();
  cache::set_cache_enabled(false);
  try {
    static_cast<void>(spice::run_transient(
        inst.path.netlist().circuit(),
        make_transient_options(sim, 1e-9, inst.path)));
    cache::set_cache_enabled(was_enabled);
    FAIL() << "expected TimeoutError";
  } catch (const TimeoutError& e) {
    cache::set_cache_enabled(was_enabled);
    EXPECT_NE(std::string(e.what()).find("operating point"), std::string::npos)
        << e.what();
  }
}

TEST(MakeTransientOptions, BudgetBoundMeasurementFinishesNearBudget) {
  // A deliberately step-starved transient (fixed 1 fs steps) cannot finish;
  // it must abort within ~1x the budget, not the historical 2x.
  const PathFactory f = small_factory();
  PathInstance inst = make_instance(f, 0.0, nullptr);
  SimSettings sim;
  sim.dt = 1e-15;
  sim.adaptive = false;
  sim.budget_seconds = 0.3;
  const bool was_enabled = cache::cache_enabled();
  cache::set_cache_enabled(false);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(
      static_cast<void>(output_pulse_width(inst.path, PulseKind::kH, 0.3e-9, sim)),
      TimeoutError);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  cache::set_cache_enabled(was_enabled);
  EXPECT_LT(elapsed, 3.0 * sim.budget_seconds);
}

TEST(TransferFunction, SolverFailureIsFlaggedNotZero) {
  // Force every Newton solve to report non-convergence: each grid point's
  // measurement fails. The curve must mark those points failed with NaN —
  // not record w_out = 0, which means "perfectly dampened pulse".
  const PathFactory f = small_factory();
  SimSettings sim;
  resil::FaultPlan plan;
  plan.seed = 1;
  plan.p_newton_nonconverge = 1.0;
  const resil::FaultScope scope(plan, 0);
  const auto grid = linspace(0.2e-9, 0.4e-9, 3);
  const TransferCurve c = transfer_function(f, PulseKind::kH, grid, sim);
  ASSERT_EQ(c.w_out.size(), grid.size());
  ASSERT_EQ(c.failed.size(), grid.size());
  EXPECT_EQ(c.n_failed, grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_TRUE(c.failed[i]) << "point " << i;
    EXPECT_TRUE(std::isnan(c.w_out[i])) << "point " << i;
  }
}

TEST(TransferFunction, HasThreeRegions) {
  // Fig. 10 structure: zeros, then a sub-linear climb, then slope ~1.
  const PathFactory f = small_factory(7);
  SimSettings sim;
  const auto grid = linspace(0.06e-9, 0.6e-9, 12);
  const TransferCurve c = transfer_function(f, PulseKind::kH, grid, sim);
  ASSERT_EQ(c.w_out.size(), grid.size());
  ASSERT_EQ(c.failed.size(), grid.size());
  EXPECT_EQ(c.n_failed, 0u);                // healthy path: no failed solves
  EXPECT_DOUBLE_EQ(c.w_out.front(), 0.0);   // region 1: dampened
  EXPECT_GT(c.w_out.back(), 0.4e-9);        // region 3 reached
  // Monotone non-decreasing.
  for (std::size_t i = 1; i < c.w_out.size(); ++i)
    EXPECT_GE(c.w_out[i] + 1e-12, c.w_out[i - 1]);
  // Final segment slope ~1.
  const double slope = (c.w_out.back() - c.w_out[c.w_out.size() - 2]) /
                       (grid.back() - grid[grid.size() - 2]);
  EXPECT_NEAR(slope, 1.0, 0.15);
}

}  // namespace
}  // namespace ppd::core
