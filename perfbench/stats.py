"""Statistics the benchmark reports: medians, quartiles, the tail
percentile, failure accounting and span self times.

Pure functions over plain lists and dicts, so the self-tests in
perfbench/tests can pin every rule without running the program.
"""

import statistics

# Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile (statistics.quantiles,
    n=4, the rule the spread is judged by)."""
    return statistics.quantiles(values, n=4)


def tail(values):
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Nearest-rank: the sample of rank k (1-based, ascending) is the
    100*k/n percentile, and n - k samples lie beyond it. When that rank
    would not lie above the median (fewer than 21 samples), the tail is
    the maximum instead, so it is never below the median. Returns
    (value, percentile, n).
    """
    ordered = sorted(values)
    n = len(ordered)
    k = n - TAIL_BEYOND
    if k - 1 < n // 2:
        return ordered[-1], 100.0, n
    return ordered[k - 1], 100.0 * k / n, n


def fail_frac(acc):
    """Failed operations over attempted ones.

    Operations are public calls (or served queries), MC samples of the
    sweeps and correctness checks. Failures are calls that threw or were
    answered BUSY or not ok (the harness counts all of them in
    calls_failed), quarantined samples and failed checks.
    """
    attempted = acc["calls"] + acc["samples"] + acc["checks"]
    failed = acc["calls_failed"] + acc["quarantined"] + acc["checks_failed"]
    return attempted, failed, failed / attempted if attempted else 1.0


def _union_length(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, end = 0.0, lo
    for a, b in clipped:
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    children cover (overlapping children count once)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - _union_length(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }
