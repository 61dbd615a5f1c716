// Frozen-engine coverage contract: the coverage POPULATION — every cell of
// every curve — that the frozen transient engine produces equals the one
// the unfrozen from-scratch oracle produces, for both test methods, and it
// does not depend on the thread count. The solve cache is cleared before
// every pass so each one runs its transients instead of replaying another
// pass's measurements.
#include "ppd/core/coverage.hpp"

#include <gtest/gtest.h>

#include "engine_detail.hpp"
#include "ppd/cache/solve_cache.hpp"

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

CoverageOptions coverage_options(bool adaptive) {
  CoverageOptions o;
  o.samples = 4;
  o.seed = 21;
  o.variation = mc::VariationModel::uniform_sigma(0.05);
  o.resistances = {1e3, 8e3, 40e3, 200e3};
  o.sim.adaptive = adaptive;
  return o;
}

void expect_same_population(const CoverageResult& a, const CoverageResult& b) {
  EXPECT_EQ(a.coverage, b.coverage);  // exact, not approximate
  EXPECT_EQ(a.simulations, b.simulations);
  EXPECT_EQ(a.resistances, b.resistances);
  EXPECT_EQ(a.n_quarantined(), b.n_quarantined());
}

/// Oracle at one thread, then the frozen engine at one and at four threads
/// (the run the sanitizer stage watches): all three populations are equal.
template <typename Run>
void expect_frozen_matches_oracle(Run run) {
  for (const bool adaptive : {false, true}) {
    CoverageOptions o = coverage_options(adaptive);
    CoverageResult oracle;
    {
      const spice::detail::UnfrozenOracle unfrozen;
      cache::SolveCache::global().clear();
      oracle = run(o);
    }
    cache::SolveCache::global().clear();
    expect_same_population(oracle, run(o));
    o.threads = 4;
    cache::SolveCache::global().clear();
    expect_same_population(oracle, run(o));
  }
}

TEST(FrozenCoverage, DelayPopulationMatchesOracleAtOneAndFourThreads) {
  const PathFactory f = rop_factory();
  DelayTestCalibration cal;
  cal.t_nominal = 0.6e-9;
  expect_frozen_matches_oracle(
      [&](const CoverageOptions& o) { return run_delay_coverage(f, cal, o); });
}

TEST(FrozenCoverage, PulsePopulationMatchesOracleAtOneAndFourThreads) {
  const PathFactory f = rop_factory();
  PulseTestCalibration cal;
  cal.w_in = 0.3e-9;
  cal.w_th = 0.1e-9;
  expect_frozen_matches_oracle(
      [&](const CoverageOptions& o) { return run_pulse_coverage(f, cal, o); });
}

}  // namespace
}  // namespace ppd::core
