// Private internals of the calibration fan-outs (measure.cpp,
// delay_test.cpp, pulse_test.cpp): T0, the nominal f_p curve and each
// (w_in, w_th) candidate are independent measurements over an index, run on
// the shared exec pool and reduced in index order by the caller.
//
// Not installed; include only from ppd_core translation units.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <optional>
#include <vector>

#include "ppd/exec/cancel.hpp"

namespace ppd::core::detail {

/// One item's outcome: its measurement, or the exception its body threw.
/// The body catches its own exception, so the reduction can rethrow it
/// unchanged (no sweep-item suffix) and only when the serial loop would
/// have reached it.
struct Measured {
  std::optional<double> value;
  std::exception_ptr error;

  /// The measurement, or the item's exception rethrown as it was thrown.
  [[nodiscard]] std::optional<double> get() const {
    if (error != nullptr) std::rethrow_exception(error);
    return value;
  }
};

/// Run `measure(i)` for every i in [0, n) at the pool's width, one result
/// slot per index. Each item must depend only on its index (RNG from
/// sample_rng), so the results equal the serial loop's bit for bit. Runs
/// serially on a pool worker (exec serializes nested sweeps) and under an
/// active resil::FaultScope, whose injection draws are per-thread. A fired
/// `cancel` raises exec::CancelledError.
[[nodiscard]] std::vector<Measured> measure_each(
    std::size_t n, const std::function<std::optional<double>(std::size_t)>& measure,
    const exec::CancelToken& cancel);

}  // namespace ppd::core::detail
