#include "ppd/core/delay_test.hpp"

#include <algorithm>

#include "fan_out.hpp"
#include "ppd/cells/dff.hpp"
#include "ppd/util/error.hpp"

namespace ppd::core {

FlipFlopTiming measured_flip_flop_timing(const cells::Process& process) {
  const cells::MeasuredFfTiming m = cells::measure_ff_timing(process);
  if (!m.valid)
    throw NumericalError("flip-flop characterization failed to latch");
  FlipFlopTiming t;
  t.tau_cq = m.clk_to_q;
  t.tau_dc = m.setup;
  return t;
}

DelayTestCalibration calibrate_delay_test(const PathFactory& factory,
                                          const DelayCalibrationOptions& options) {
  PPD_REQUIRE(options.samples > 0, "need at least one MC sample");
  PPD_REQUIRE(options.clock_guard >= 0.0 && options.clock_guard < 1.0,
              "clock guard must be in [0, 1)");

  const auto delays = detail::measure_each(
      static_cast<std::size_t>(options.samples),
      [&](std::size_t s) {
        mc::Rng rng = sample_rng(options.seed, s);
        mc::GaussianVariationSource var(options.variation, rng);
        PathInstance inst = make_instance(factory, /*fault_ohms=*/0.0, &var);
        return path_delay(inst.path, options.input_rising, options.sim);
      },
      options.cancel);
  double worst = 0.0;
  for (const detail::Measured& delay : delays) {
    const auto d = delay.get();
    if (!d.has_value())
      throw NumericalError(
          "fault-free instance produced no output transition during delay "
          "calibration");
    worst = std::max(worst, *d);
  }

  DelayTestCalibration cal;
  cal.flip_flops = options.flip_flops;
  cal.input_rising = options.input_rising;
  cal.worst_fault_free_delay = worst;
  // Yield-first rule: even the slowest fault-free instance passes when the
  // applied clock is (1-guard) of nominal.
  cal.t_nominal =
      (worst + options.flip_flops.overhead()) / (1.0 - options.clock_guard);
  return cal;
}

bool delay_detects(std::optional<double> measured_delay, double t_applied,
                   const FlipFlopTiming& ff) {
  if (!measured_delay.has_value()) return true;  // output never switched
  return t_applied < *measured_delay + ff.overhead();
}

}  // namespace ppd::core
