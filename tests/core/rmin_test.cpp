#include "ppd/core/rmin.hpp"

#include <gtest/gtest.h>

#include "ppd/resil/faultplan.hpp"
#include "ppd/util/error.hpp"

namespace ppd::core {
namespace {

PathFactory rop_factory() {
  PathFactory f;
  f.options.kinds.assign(3, cells::GateKind::kInv);
  faults::PathFaultSpec spec;
  spec.kind = faults::FaultKind::kExternalRopOutput;
  spec.stage = 1;
  f.fault = spec;
  return f;
}

PulseTestCalibration quick_calibration(const PathFactory& f) {
  PulseCalibrationOptions popt;
  popt.samples = 3;
  popt.seed = 31;
  popt.w_in_grid = linspace(0.10e-9, 0.60e-9, 11);
  return calibrate_pulse_test(f, popt);
}

TEST(Rmin, FindsThresholdWithinBracket) {
  const PathFactory f = rop_factory();
  const PulseTestCalibration cal = quick_calibration(f);
  RminOptions opt;
  opt.samples = 3;
  opt.seed = 31;
  opt.r_lo = 500.0;
  opt.r_hi = 500e3;
  opt.bisection_steps = 8;
  const RminResult res = find_r_min(f, cal, opt);
  ASSERT_TRUE(res.detectable);
  EXPECT_GT(res.r_min, opt.r_lo);
  EXPECT_LT(res.r_min, opt.r_hi);
  EXPECT_GT(res.simulations, 0u);

  // Verify the bisection result: detected at r_min, not at r_min / 2.
  auto detected_everywhere = [&](double r) {
    for (int s = 0; s < opt.samples; ++s) {
      mc::Rng rng = sample_rng(opt.seed, static_cast<std::size_t>(s));
      mc::GaussianVariationSource var(opt.variation, rng);
      PathInstance inst = make_instance(f, r, &var);
      const auto w = output_pulse_width(inst.path, cal.kind, cal.w_in, opt.sim);
      if (!pulse_detects(w, cal.w_th)) return false;
    }
    return true;
  };
  EXPECT_TRUE(detected_everywhere(res.r_min * 1.05));
  EXPECT_FALSE(detected_everywhere(res.r_min * 0.5));
}

TEST(Rmin, UndetectableBracketReported) {
  const PathFactory f = rop_factory();
  const PulseTestCalibration cal = quick_calibration(f);
  RminOptions opt;
  opt.samples = 3;
  opt.seed = 31;
  opt.r_lo = 10.0;
  opt.r_hi = 100.0;  // far too small to dampen anything
  const RminResult res = find_r_min(f, cal, opt);
  EXPECT_FALSE(res.detectable);
}

TEST(Rmin, FullyQuarantinedSweepDoesNotWrapAccounting) {
  // Every sample of every bisection step fails by injection and lands in
  // quarantine. The valid-sample count must clamp at zero (a size_t
  // "hits - quarantined" would wrap to ~2^64) and a 0-valid population
  // reads as fraction 0 -> undetectable, never as division noise.
  const PathFactory f = rop_factory();
  PulseTestCalibration cal;
  cal.w_in = 0.3e-9;
  cal.w_th = 0.1e-9;
  RminOptions opt;
  opt.samples = 3;
  opt.seed = 31;
  opt.r_lo = 500.0;
  opt.r_hi = 500e3;
  opt.resil.quarantine = true;
  opt.resil.faults.seed = 13;
  opt.resil.faults.p_item_fail = 1.0;
  const RminResult res = find_r_min(f, cal, opt);
  EXPECT_FALSE(res.detectable);
  EXPECT_EQ(res.simulations, 0u);
  EXPECT_LT(res.simulations, 1u << 30);  // the wrap would be ~1.8e19
  EXPECT_EQ(res.n_quarantined, 3u);      // one bracket-check sweep ran
}

TEST(Rmin, SweepBudgetBoundsTheWholeBisection) {
  const PathFactory f = rop_factory();
  PulseTestCalibration cal;
  cal.w_in = 1.5e-10;
  cal.w_th = 1.1e-10;
  RminOptions opt;
  opt.samples = 2;
  opt.seed = 2007;
  opt.r_lo = 500.0;
  opt.r_hi = 100e3;
  // The bracket needs the full bisection: detected at r_hi, not at r_lo.
  const RminResult free = find_r_min(f, cal, opt);
  ASSERT_TRUE(free.detectable);
  ASSERT_GT(free.r_min, opt.r_lo);
  // Every sample sleeps 10 ms, so each two-sample step fits the 50 ms
  // budget while the 12 steps together do not.
  opt.resil.faults = resil::FaultPlan::parse("seed=1,delay=1:0.01");
  opt.resil.sweep_budget_seconds = 0.05;
  try {
    (void)find_r_min(f, cal, opt);
    FAIL() << "expected TimeoutError";
  } catch (const TimeoutError& e) {
    // The error names the R_min sweep and its whole budget.
    EXPECT_NE(std::string(e.what()).find(
                  "r_min sweep exceeded its wall budget of 0.050000 s"),
              std::string::npos)
        << e.what();
  }
}

TEST(Rmin, ValidatesOptions) {
  const PathFactory f = rop_factory();
  PulseTestCalibration cal;
  cal.w_in = 0.3e-9;
  cal.w_th = 0.1e-9;
  RminOptions opt;
  opt.r_lo = 10.0;
  opt.r_hi = 5.0;
  EXPECT_THROW(static_cast<void>(find_r_min(f, cal, opt)), PreconditionError);
  PathFactory clean = f;
  clean.fault.reset();
  RminOptions ok;
  EXPECT_THROW(static_cast<void>(find_r_min(clean, cal, ok)), PreconditionError);
}

}  // namespace
}  // namespace ppd::core
