// Private internals of the Monte-Carlo detection sweeps (coverage.cpp,
// rmin.cpp): C_del(R)/C_pulse(R) and each R_min bisection step are the same
// statistic — the fraction of valid samples detected at resistance R — so
// one sweep over (resistance x MC sample) computes all of them.
//
// Not installed; include only from ppd_core translation units.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "ppd/core/coverage.hpp"

namespace ppd::core::detail {

/// One MC sample's verdict row: one 0/1 entry per options.multipliers,
/// measured on the sample's instance with the sweep's solve settings.
using SampleVerdicts = std::function<resil::VerdictRow(
    cells::Path& path, std::size_t sample, const SimSettings& sim)>;

/// Run `verdicts` over every (resistance r, sample s) item of `options`
/// through resil::run_guarded_sweep and normalize each resistance column by
/// its own count of valid (unquarantined) samples. `context` names the
/// sweep (errors, checkpoint identity); the stats go under `domain`.
[[nodiscard]] CoverageResult run_detection_sweep(
    const PathFactory& factory, const CoverageOptions& options,
    std::string context, const std::string& domain,
    const SampleVerdicts& verdicts);

}  // namespace ppd::core::detail
