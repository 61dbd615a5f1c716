// ppd::exec wiring into the coverage layer: the parallel Monte-Carlo sweep
// must be bit-identical to the serial one at any thread count (the
// determinism contract documented in README), cancellation must abandon a
// sweep, and a pinned run_pulse_coverage result guards the historical
// (seed, sample) -> RNG derivation against accidental reseeding. The
// calibrations fan out at the pool's width and run serially inside a pool
// task; both must give the same bits, the same solver work and honour
// cancellation.
#include "ppd/core/coverage.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <future>
#include <memory>

#include "ppd/cache/solve_cache.hpp"
#include "ppd/core/rmin.hpp"
#include "ppd/exec/cancel.hpp"
#include "ppd/exec/thread_pool.hpp"
#include "ppd/obs/metrics.hpp"

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

PulseTestCalibration pinned_calibration(const PathFactory& f) {
  PulseCalibrationOptions popt;
  popt.samples = 4;
  popt.seed = 21;
  popt.variation = mc::VariationModel::uniform_sigma(0.05);
  popt.w_in_grid = linspace(0.10e-9, 0.60e-9, 11);
  return calibrate_pulse_test(f, popt);
}

CoverageOptions pinned_coverage_options() {
  CoverageOptions o;
  o.samples = 8;
  o.seed = 2007;
  o.variation = mc::VariationModel::uniform_sigma(0.05);
  o.resistances = {2e3, 4e3, 6e3, 10e3, 40e3};
  return o;
}

bool identical(const CoverageResult& a, const CoverageResult& b) {
  return a.resistances == b.resistances && a.multipliers == b.multipliers &&
         a.coverage == b.coverage && a.simulations == b.simulations;
}

// Regression pin: exact values produced by the serial implementation before
// ppd::exec existed. The fractions are eighths (8 samples), exact in double,
// so EXPECT_DOUBLE_EQ is an equality check, not a tolerance check. If this
// fails, the (seed, sample) RNG derivation or the sweep order changed.
TEST(PulseCoverageThreads, PinnedResultAtFixedSeed) {
  const PathFactory f = rop_factory();
  const PulseTestCalibration cal = pinned_calibration(f);
  EXPECT_DOUBLE_EQ(cal.w_in, 1.5e-10);
  EXPECT_DOUBLE_EQ(cal.w_th, 1.1171540878212508e-10);

  const CoverageResult res =
      run_pulse_coverage(f, cal, pinned_coverage_options());
  ASSERT_EQ(res.coverage.size(), 3u);
  const std::vector<std::vector<double>> expected = {
      {0.0, 1.0, 1.0, 1.0, 1.0},
      {0.125, 1.0, 1.0, 1.0, 1.0},
      {0.25, 1.0, 1.0, 1.0, 1.0},
  };
  for (std::size_t m = 0; m < expected.size(); ++m) {
    ASSERT_EQ(res.coverage[m].size(), expected[m].size()) << "m=" << m;
    for (std::size_t r = 0; r < expected[m].size(); ++r)
      EXPECT_DOUBLE_EQ(res.coverage[m][r], expected[m][r])
          << "m=" << m << " r=" << r;
  }
  EXPECT_EQ(res.simulations, 40u);
}

TEST(PulseCoverageThreads, BitIdenticalAcrossThreadCounts) {
  const PathFactory f = rop_factory();
  const PulseTestCalibration cal = pinned_calibration(f);
  CoverageOptions copt = pinned_coverage_options();
  copt.threads = 1;
  const CoverageResult serial = run_pulse_coverage(f, cal, copt);
  for (int threads : {3, 0}) {
    copt.threads = threads;
    const CoverageResult par = run_pulse_coverage(f, cal, copt);
    EXPECT_TRUE(identical(par, serial)) << "threads=" << threads;
  }
}

TEST(DelayCoverageThreads, BitIdenticalAcrossThreadCounts) {
  const PathFactory f = rop_factory();
  // Fixed calibration: this test exercises the sweep, not the calibration.
  DelayTestCalibration cal;
  cal.t_nominal = 0.6e-9;
  CoverageOptions copt = pinned_coverage_options();
  copt.threads = 1;
  const CoverageResult serial = run_delay_coverage(f, cal, copt);
  for (int threads : {3, 0}) {
    copt.threads = threads;
    const CoverageResult par = run_delay_coverage(f, cal, copt);
    EXPECT_TRUE(identical(par, serial)) << "threads=" << threads;
  }
}

TEST(PulseCoverageThreads, PreFiredTokenAbandonsSweep) {
  const PathFactory f = rop_factory();
  PulseTestCalibration cal;
  cal.w_in = 1.5e-10;
  cal.w_th = 1.1e-10;
  CoverageOptions copt = pinned_coverage_options();
  copt.cancel.cancel();
  EXPECT_THROW(run_pulse_coverage(f, cal, copt), exec::CancelledError);
}

TEST(RminThreads, BitIdenticalAcrossThreadCounts) {
  const PathFactory f = rop_factory();
  const PulseTestCalibration cal = pinned_calibration(f);
  RminOptions opt;
  opt.samples = 3;
  opt.seed = 31;
  opt.variation = mc::VariationModel::uniform_sigma(0.05);
  opt.r_lo = 500.0;
  opt.r_hi = 500e3;
  opt.bisection_steps = 6;
  opt.threads = 1;
  const RminResult serial = find_r_min(f, cal, opt);
  opt.threads = 3;
  const RminResult par = find_r_min(f, cal, opt);
  EXPECT_EQ(par.detectable, serial.detectable);
  EXPECT_DOUBLE_EQ(par.r_min, serial.r_min);
  EXPECT_EQ(par.simulations, serial.simulations);
}

// ------------------------------------------------------------- calibration

PathFactory seven_gate_factory() {
  PathFactory f = rop_factory();
  f.options = cells::seven_gate_path();
  return f;
}

DelayCalibrationOptions delay_options() {
  DelayCalibrationOptions o;
  o.samples = 3;
  o.seed = 5;
  o.variation = mc::VariationModel::uniform_sigma(0.05);
  return o;
}

PulseCalibrationOptions pulse_options() {
  PulseCalibrationOptions o;
  o.samples = 3;
  o.seed = 5;
  o.variation = mc::VariationModel::uniform_sigma(0.05);
  return o;
}

/// Every double the three calibration entry points return, as bit patterns.
std::vector<std::uint64_t> calibration_bits(const PathFactory& f) {
  std::vector<std::uint64_t> bits;
  const auto add = [&bits](double v) {
    bits.push_back(std::bit_cast<std::uint64_t>(v));
  };
  const DelayTestCalibration d = calibrate_delay_test(f, delay_options());
  add(d.t_nominal);
  add(d.worst_fault_free_delay);
  const PulseTestCalibration p = calibrate_pulse_test(f, pulse_options());
  add(p.w_in);
  add(p.w_th);
  add(p.min_fault_free_w_out);
  for (const double w : p.nominal_curve.w_out) add(w);
  const TransferCurve c = transfer_function(
      f, PulseKind::kH, linspace(0.08e-9, 0.8e-9, 7), SimSettings{});
  for (const double w : c.w_out) add(w);
  return bits;
}

/// `calibration_bits` run inside a global-pool task, where every nested
/// fan-out serializes.
std::vector<std::uint64_t> calibration_bits_on_pool(const PathFactory& f) {
  auto task = std::make_shared<std::packaged_task<std::vector<std::uint64_t>()>>(
      [&f] { return calibration_bits(f); });
  std::future<std::vector<std::uint64_t>> result = task->get_future();
  exec::ThreadPool::global().submit([task] { (*task)(); });
  return result.get();
}

TEST(CalibrationThreads, PoolWidthAndPoolTaskAreBitIdentical) {
  const PathFactory f = seven_gate_factory();
  const bool was_enabled = cache::cache_enabled();
  for (const bool cache_on : {true, false}) {
    cache::set_cache_enabled(cache_on);
    cache::solve_cache().clear();
    const auto direct = calibration_bits(f);
    cache::solve_cache().clear();
    const auto serial = calibration_bits_on_pool(f);
    EXPECT_EQ(direct, serial) << "cache " << (cache_on ? "on" : "off");
  }
  cache::set_cache_enabled(was_enabled);
}

TEST(CalibrationThreads, RepeatedPulseCalibrationSolvesEqually) {
  // Every nominal grid point warm-starts from the operating point grid
  // point 0 stores; were they measured together, some would race to solve
  // it cold and the solve count would vary from call to call.
  const PathFactory f = seven_gate_factory();
  const obs::Counter& solves = obs::counter("spice.newton.solves");
  std::vector<std::uint64_t> deltas;
  for (int call = 0; call < 2; ++call) {
    cache::solve_cache().clear();
    const std::uint64_t before = solves.value();
    (void)calibrate_pulse_test(f, pulse_options());
    deltas.push_back(solves.value() - before);
  }
  EXPECT_GT(deltas[0], 0u);
  EXPECT_EQ(deltas[0], deltas[1]);
}

TEST(CalibrationThreads, PreFiredTokenRunsNoTransient) {
  const PathFactory f = seven_gate_factory();
  const obs::Counter& runs = obs::counter("spice.transient.runs");
  const std::uint64_t before = runs.value();
  DelayCalibrationOptions dopt = delay_options();
  dopt.cancel.cancel();
  EXPECT_THROW((void)calibrate_delay_test(f, dopt), exec::CancelledError);
  PulseCalibrationOptions popt = pulse_options();
  popt.cancel.cancel();
  EXPECT_THROW((void)calibrate_pulse_test(f, popt), exec::CancelledError);
  EXPECT_EQ(runs.value(), before);
}

}  // namespace
}  // namespace ppd::core
