// Closed-interval arithmetic for the pulse-survival bounds: [lo, hi] pairs
// of seconds, the attainable pulse-width range at a net.
#pragma once

namespace ppd::sta {

struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  [[nodiscard]] static Interval point(double v) { return {v, v}; }

  friend bool operator==(const Interval& a, const Interval& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
};

}  // namespace ppd::sta
