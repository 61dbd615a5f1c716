#include "ppd/core/coverage.hpp"

#include "detection_sweep.hpp"
#include "ppd/obs/trace.hpp"
#include "ppd/util/error.hpp"

namespace ppd::core {

namespace detail {

CoverageResult run_detection_sweep(const PathFactory& factory,
                                   const CoverageOptions& options,
                                   std::string context,
                                   const std::string& domain,
                                   const SampleVerdicts& verdicts) {
  const auto samples = static_cast<std::size_t>(options.samples);
  const std::size_t items = options.resistances.size() * samples;
  exec::ParallelOptions par;
  par.threads = options.threads;
  par.cancel = options.cancel;
  // Item i = (resistance r, MC sample s); name the sweep so an electrical
  // failure deep inside one sample still says which experiment it broke.
  par.context = std::move(context);
  SimSettings sim = options.sim;
  if (options.resil.solve_budget_seconds > 0.0)
    sim.budget_seconds = options.resil.solve_budget_seconds;

  resil::GuardedSweep swept = resil::run_guarded_sweep(
      options.resil, options.seed,
      [samples](std::size_t item) {
        return static_cast<std::uint64_t>(item % samples);
      },
      std::move(par), domain, items, options.multipliers.size(),
      [&](std::size_t item) {
        const std::size_t s = item % samples;
        mc::Rng rng = sample_rng(options.seed, s);
        mc::GaussianVariationSource var(options.variation, rng);
        PathInstance inst =
            make_instance(factory, options.resistances[item / samples], &var);
        return verdicts(inst.path, s, sim);
      });

  // Detections are 0/1 counts, so the sums are exact in double arithmetic
  // and match a serial accumulation bit for bit at any thread count.
  // Quarantined items leave both numerator and denominator: each resistance
  // column divides by its own count of valid samples (0 valid -> 0). Count
  // them, never as items - quarantined: that size_t difference wraps to
  // ~2^64 whenever the report outnumbers the collected rows.
  CoverageResult res;
  res.resistances = options.resistances;
  res.multipliers = options.multipliers;
  res.coverage.assign(options.multipliers.size(),
                      std::vector<double>(options.resistances.size(), 0.0));
  std::vector<std::size_t> valid(options.resistances.size(), 0);
  for (std::size_t item = 0; item < swept.rows.size(); ++item) {
    if (swept.quarantine.contains(item)) continue;
    const std::size_t r = item / samples;
    ++valid[r];
    for (std::size_t m = 0; m < options.multipliers.size(); ++m)
      if (swept.rows[item][m]) res.coverage[m][r] += 1.0;
  }
  for (const std::size_t v : valid) res.simulations += v;
  for (auto& row : res.coverage)
    for (std::size_t r = 0; r < row.size(); ++r)
      row[r] = valid[r] == 0 ? 0.0 : row[r] / static_cast<double>(valid[r]);
  res.quarantine = std::move(swept.quarantine);
  return res;
}

}  // namespace detail

namespace {

void validate(const PathFactory& factory, const CoverageOptions& options) {
  PPD_REQUIRE(options.samples > 0, "need at least one MC sample");
  PPD_REQUIRE(!options.resistances.empty(), "need a resistance sweep");
  PPD_REQUIRE(!options.multipliers.empty(), "need at least one multiplier");
  PPD_REQUIRE(factory.fault.has_value(), "coverage needs a fault site");
}

}  // namespace

CoverageResult run_delay_coverage(const PathFactory& factory,
                                  const DelayTestCalibration& cal,
                                  const CoverageOptions& options) {
  const obs::Span span("core.delay_coverage");
  validate(factory, options);
  return detail::run_detection_sweep(
      factory, options, "delay-test coverage MC sweep", "core.coverage",
      [&](cells::Path& path, std::size_t, const SimSettings& sim) {
        const std::optional<double> d =
            path_delay(path, cal.input_rising, sim);
        resil::VerdictRow hit(options.multipliers.size(), 0);
        for (std::size_t m = 0; m < options.multipliers.size(); ++m)
          hit[m] = delay_detects(d, options.multipliers[m] * cal.t_nominal,
                                 cal.flip_flops);
        return hit;
      });
}

CoverageResult run_pulse_coverage(const PathFactory& factory,
                                  const PulseTestCalibration& cal,
                                  const CoverageOptions& options) {
  const obs::Span span("core.pulse_coverage");
  validate(factory, options);
  return detail::run_detection_sweep(
      factory, options, "pulse-test coverage MC sweep", "core.coverage",
      [&](cells::Path& path, std::size_t s, const SimSettings& sim) {
        // This die's generator produces its own width (uncertainty (a)).
        mc::Rng gen_rng = sample_rng(options.seed ^ 0xABCDull, s);
        const double w_in =
            cal.w_in * gen_rng.normal_clipped(1.0, options.generator_sigma, 4.0);
        const std::optional<double> w_out =
            output_pulse_width(path, cal.kind, w_in, sim);
        resil::VerdictRow hit(options.multipliers.size(), 0);
        for (std::size_t m = 0; m < options.multipliers.size(); ++m)
          hit[m] = pulse_detects(w_out, options.multipliers[m] * cal.w_th);
        return hit;
      });
}

}  // namespace ppd::core
