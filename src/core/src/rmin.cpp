#include "ppd/core/rmin.hpp"

#include "detection_sweep.hpp"
#include "ppd/obs/trace.hpp"
#include "ppd/resil/deadline.hpp"
#include "ppd/util/error.hpp"

namespace ppd::core {

namespace {

TimeoutError budget_exceeded(const RminOptions& options) {
  return TimeoutError("r_min sweep exceeded its wall budget of " +
                      std::to_string(options.resil.sweep_budget_seconds) +
                      " s");
}

/// Fraction of the MC population detected at resistance r: a detection
/// sweep at one resistance and one multiplier. Quarantined samples drop
/// from both numerator and denominator (fraction 0 when every sample is
/// quarantined). The step's sweep budget is what is left of the whole
/// bisection's (`deadline`).
double detected_fraction(const PathFactory& factory,
                         const PulseTestCalibration& cal,
                         const RminOptions& options,
                         const resil::Deadline& deadline, double r,
                         RminResult& res) {
  CoverageOptions step;
  step.samples = options.samples;
  step.seed = options.seed;
  step.variation = options.variation;
  step.sim = options.sim;
  step.resistances = {r};
  step.multipliers = {1.0};
  step.threads = options.threads;
  step.cancel = options.cancel;
  step.resil = options.resil;
  // Each bisection step is its own short sweep; checkpointing would clash
  // across steps, so only quarantine/budget/injection carry over.
  step.resil.checkpoint_path.clear();
  step.resil.resume = false;
  if (!deadline.unlimited()) {
    step.resil.sweep_budget_seconds = deadline.remaining_seconds();
    if (step.resil.sweep_budget_seconds <= 0.0) throw budget_exceeded(options);
  }
  CoverageResult swept;
  try {
    swept = detail::run_detection_sweep(
        factory, step, "r_min MC sweep at R = " + std::to_string(r) + " ohm",
        "core.rmin",
        [&](cells::Path& path, std::size_t, const SimSettings& sim) {
          const std::optional<double> w_out =
              output_pulse_width(path, cal.kind, cal.w_in, sim);
          return resil::VerdictRow{pulse_detects(w_out, cal.w_th)};
        });
  } catch (const TimeoutError&) {
    // The step ran on what was left of the bisection's budget: report the
    // whole budget, not the step's remainder.
    if (deadline.unlimited() || !deadline.expired()) throw;
    throw budget_exceeded(options);
  }
  res.simulations += swept.simulations;
  res.n_quarantined += swept.n_quarantined();
  return swept.coverage[0][0];
}

}  // namespace

RminResult find_r_min(const PathFactory& factory, const PulseTestCalibration& cal,
                      const RminOptions& options) {
  const obs::Span span("core.find_r_min");
  PPD_REQUIRE(factory.fault.has_value(), "r_min needs a fault site");
  PPD_REQUIRE(options.r_hi > options.r_lo && options.r_lo > 0.0,
              "invalid resistance bracket");
  PPD_REQUIRE(options.target_coverage > 0.0 && options.target_coverage <= 1.0,
              "target coverage must be in (0, 1]");

  // One wall budget for the whole bisection, not one per step.
  const resil::Deadline deadline =
      resil::Deadline::after(options.resil.sweep_budget_seconds);
  RminResult res;
  const auto detected = [&](double r) {
    return detected_fraction(factory, cal, options, deadline, r, res) >=
           options.target_coverage;
  };
  // Bracket check: detected at r_hi, undetected at r_lo.
  if (!detected(options.r_hi)) {
    res.detectable = false;
    return res;
  }
  res.detectable = true;
  double lo = options.r_lo;
  double hi = options.r_hi;
  if (detected(lo)) {
    res.r_min = lo;  // detected across the whole bracket
    return res;
  }
  for (int i = 0; i < options.bisection_steps; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (detected(mid))
      hi = mid;
    else
      lo = mid;
  }
  res.r_min = hi;
  return res;
}

}  // namespace ppd::core
