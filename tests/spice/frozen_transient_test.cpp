// Frozen transient engine contract: run_transient() (structure-frozen MNA,
// reused Newton workspace, bit-safe MOSFET bypass) produces waveforms,
// step counts and Newton iteration counts bit-identical to the unfrozen
// from-scratch oracle — at a fixed step and adaptively, on the dense and
// the sparse backend — and a circuit reused across transients (the R_min
// bisection pattern) carries no frozen or bypass state from one into the
// next.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "engine_detail.hpp"
#include "ppd/cells/path.hpp"
#include "ppd/core/measure.hpp"
#include "ppd/faults/fault.hpp"
#include "ppd/obs/metrics.hpp"
#include "ppd/spice/analysis.hpp"

namespace ppd::spice {
namespace {

[[nodiscard]] bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_identical(const TransientResult& a, const TransientResult& b) {
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.rejected_steps, b.rejected_steps);
  EXPECT_EQ(a.newton_iterations, b.newton_iterations);
  ASSERT_EQ(a.node_waves.size(), b.node_waves.size());
  for (std::size_t n = 1; n < a.node_waves.size(); ++n) {
    const auto& wa = a.node_waves[n];
    const auto& wb = b.node_waves[n];
    ASSERT_EQ(wa.size(), wb.size()) << a.node_names[n];
    for (std::size_t i = 0; i < wa.size(); ++i) {
      ASSERT_TRUE(bits_equal(wa.times()[i], wb.times()[i]))
          << a.node_names[n] << " sample " << i;
      ASSERT_TRUE(bits_equal(wa.values()[i], wb.values()[i]))
          << a.node_names[n] << " sample " << i;
    }
  }
}

cells::PathOptions inverter_chain(std::size_t gates) {
  cells::PathOptions po;
  po.kinds.assign(gates, cells::GateKind::kInv);
  return po;
}

faults::PathFaultSpec mid_path_rop(const cells::PathOptions& po) {
  faults::PathFaultSpec spec;
  spec.stage = po.kinds.size() / 2;
  return spec;
}

// A pulse-driven path with an external ROP mid-path: MOSFETs that switch
// and settle, a defect resistor, and enough tail for the quiescent bypass
// and the cached/rhs-only solve shortcuts to fire.
struct RopPath {
  cells::Path path;
  faults::InjectedFault fault;

  RopPath(const cells::PathOptions& po, double ohms)
      : path(cells::build_path(cells::Process{}, po)),
        fault(faults::inject_on_path(path, mid_path_rop(po), ohms)) {
    path.drive_pulse(/*positive=*/true, /*width=*/0.4e-9, /*t_launch=*/0.2e-9);
  }
  Circuit& circuit() { return path.netlist().circuit(); }
  [[nodiscard]] std::size_t output() const {
    return static_cast<std::size_t>(path.output());
  }
};

// The measurement layer's options — including the per-stage .NODESET
// seeding a long chain's operating point needs — with every node probed.
// Fixed steps use backward Euler (settled nodes freeze bitwise, so the
// quiescent bypass fires), adaptive runs the trapezoidal default.
TransientOptions options(const cells::Path& path, bool adaptive,
                         double t_stop) {
  core::SimSettings sim;
  sim.dt = 4e-12;
  sim.adaptive = adaptive;
  if (!adaptive) sim.integrator = Integrator::kBackwardEuler;
  TransientOptions opt = core::make_transient_options(sim, t_stop, path);
  opt.probe.clear();
  return opt;
}

/// Frozen run on one instance, oracle run on a second identical instance.
void expect_frozen_matches_oracle(const cells::PathOptions& po, bool adaptive,
                                  double t_stop, bool expect_sparse) {
  RopPath frozen_path(po, 20e3);
  RopPath oracle_path(po, 20e3);
  Circuit& fc = frozen_path.circuit();
  const TransientOptions opt = options(frozen_path.path, adaptive, t_stop);

  auto& hits = obs::counter("spice.bypass.hits");
  auto& refactored = obs::counter("spice.solve.refactored");
  const std::uint64_t refactored0 = refactored.value();
  const TransientResult frozen = run_transient(fc, opt);
  // The frozen engine really ran: its MnaSystem refactored in place.
  EXPECT_GT(refactored.value(), refactored0);
  EXPECT_EQ(fc.unknown_count() > opt.sparse_threshold, expect_sparse);

  TransientResult oracle;
  {
    const detail::UnfrozenOracle unfrozen;
    const std::uint64_t hits1 = hits.value();
    const std::uint64_t refactored1 = refactored.value();
    oracle = run_transient(oracle_path.circuit(), opt);
    // The oracle really is the from-scratch path: no frozen solve, no bypass.
    EXPECT_EQ(refactored.value(), refactored1);
    EXPECT_EQ(hits.value(), hits1);
  }
  EXPECT_GT(frozen.steps, 0u);
  expect_identical(frozen, oracle);
}

// The paper's 7-gate path: 21 unknowns, dense backend.
TEST(FrozenTransient, DenseFixedStepMatchesOracle) {
  expect_frozen_matches_oracle(cells::seven_gate_path(), /*adaptive=*/false,
                               2.5e-9, /*expect_sparse=*/false);
}

TEST(FrozenTransient, DenseAdaptiveMatchesOracle) {
  expect_frozen_matches_oracle(cells::seven_gate_path(), /*adaptive=*/true,
                               2.5e-9, /*expect_sparse=*/false);
}

// A 100-inverter chain: 204 unknowns, above the sparse threshold of 192.
TEST(FrozenTransient, SparseFixedStepMatchesOracle) {
  expect_frozen_matches_oracle(inverter_chain(100), /*adaptive=*/false,
                               1.2e-9, /*expect_sparse=*/true);
}

TEST(FrozenTransient, SparseAdaptiveMatchesOracle) {
  expect_frozen_matches_oracle(inverter_chain(100), /*adaptive=*/true,
                               1.2e-9, /*expect_sparse=*/true);
}

TEST(FrozenTransient, ReusedCircuitMatchesFreshCircuit) {
  // R_min bisection pattern: one circuit, its defect resistor retuned with
  // set_resistance() between transients. Every transient builds and freezes
  // its own MnaSystem, and the MOSFET bypass cache only ever reuses an
  // evaluation at equal voltages, so the second transient must equal one on
  // a freshly built circuit at the new resistance.
  for (const bool adaptive : {false, true}) {
    RopPath reused(cells::seven_gate_path(), 5e3);
    const TransientOptions opt = options(reused.path, adaptive, 2.5e-9);
    const TransientResult first = run_transient(reused.circuit(), opt);
    RopPath fresh_first(cells::seven_gate_path(), 5e3);
    expect_identical(first, run_transient(fresh_first.circuit(), opt));

    faults::set_fault_resistance(reused.path.netlist(), reused.fault, 40e3);
    const TransientResult second = run_transient(reused.circuit(), opt);
    RopPath fresh(cells::seven_gate_path(), 40e3);
    expect_identical(second, run_transient(fresh.circuit(), opt));
    // The retune mattered: the output waveform moved.
    EXPECT_NE(second.node_waves[reused.output()].values(),
              first.node_waves[reused.output()].values());
  }
}

}  // namespace
}  // namespace ppd::spice
