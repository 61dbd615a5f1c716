// Reduced-clock-period delay-fault testing — the baseline the paper
// compares against (Sect. 4).
//
// A path p tested between launch flip-flop FF0 and capture flip-flop FF1 is
// detected faulty in instance s when
//     T' < d_p^s(R) + tau_CQ + tau_DC
// where T' is the applied (uncertain) clock period. The nominal test period
// T0 is calibrated by Monte-Carlo so that *no fault-free instance fails even
// when T' drops 10% below nominal* — the paper's yield-first rule.
#pragma once

#include <cstdint>
#include <optional>

#include "ppd/core/measure.hpp"
#include "ppd/exec/cancel.hpp"

namespace ppd::core {

/// Flip-flop timing budget of the test loop. The defaults match the
/// transistor-level transmission-gate DFF of this repository within a few
/// ps (cells::measure_ff_timing; see measured_flip_flop_timing below).
struct FlipFlopTiming {
  double tau_cq = 60e-12;  ///< launch clock-to-Q
  double tau_dc = 40e-12;  ///< capture setup time

  [[nodiscard]] double overhead() const { return tau_cq + tau_dc; }
};

/// Characterize the repository's transistor-level DFF electrically and
/// return its timing as a test budget. Throws NumericalError when the cell
/// fails to latch (e.g. under an absurd process).
[[nodiscard]] FlipFlopTiming measured_flip_flop_timing(
    const cells::Process& process);

struct DelayTestCalibration {
  double t_nominal = 0.0;       ///< calibrated nominal test period T0 [s]
  FlipFlopTiming flip_flops;
  bool input_rising = true;     ///< launched transition polarity
  double worst_fault_free_delay = 0.0;  ///< max d_p over the MC sample
};

struct DelayCalibrationOptions {
  int samples = 50;
  std::uint64_t seed = 1;
  mc::VariationModel variation;
  SimSettings sim;
  FlipFlopTiming flip_flops;
  /// Clock-uncertainty guard band: T0 is chosen so T' = (1-guard)*T0 still
  /// passes every fault-free instance (paper: 10%).
  double clock_guard = 0.10;
  bool input_rising = true;
  /// Fired: the calibration stops claiming samples and raises
  /// exec::CancelledError. The samples always run at the exec pool's width
  /// (serially on a pool worker and under fault injection).
  exec::CancelToken cancel;
};

/// Monte-Carlo calibration of the nominal test period for `factory`'s path
/// (built fault-free regardless of the factory's fault spec).
[[nodiscard]] DelayTestCalibration calibrate_delay_test(
    const PathFactory& factory, const DelayCalibrationOptions& options);

/// Detection predicate: does this measured delay fail a test clock of
/// `t_applied`? A missing delay (no output transition) always fails.
[[nodiscard]] bool delay_detects(std::optional<double> measured_delay,
                                 double t_applied, const FlipFlopTiming& ff);

}  // namespace ppd::core
