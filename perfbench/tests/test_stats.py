"""Self-tests of the benchmark's statistics and failure accounting.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import stats  # noqa: E402


class QuantileTests(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_follow_the_exclusive_method(self):
        # statistics.quantiles(n=4), the rule the spread check uses.
        self.assertEqual(stats.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
                         [2.75, 5.5, 8.25])

    def test_tail_leaves_exactly_ten_samples_beyond(self):
        values = list(range(1, 101))  # 1..100
        value, pct, n = stats.tail(values)
        self.assertEqual(n, 100)
        self.assertEqual(value, 90)
        self.assertEqual(pct, 90.0)
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_tail_is_order_independent_and_reports_the_count(self):
        values = [5.0] * 11 + [1.0] * 11 + [9.0]
        value, pct, n = stats.tail(values)
        self.assertEqual((value, n), (5.0, 23))
        self.assertAlmostEqual(pct, 100.0 * 13 / 23)

    def test_tail_is_the_maximum_until_the_rank_lies_above_the_median(self):
        self.assertEqual(stats.tail(list(range(20))), (19, 100.0, 20))
        value, pct, n = stats.tail(list(range(21)))
        self.assertEqual((value, n), (10, 21))
        self.assertAlmostEqual(pct, 100.0 * 11 / 21)
        self.assertEqual(stats.tail([3.0]), (3.0, 100.0, 1))

    def test_tail_is_never_below_the_median(self):
        rng = random.Random(5)
        for n in range(1, 120):
            values = [rng.expovariate(1.0) for _ in range(n)]
            self.assertGreaterEqual(stats.tail(values)[0], stats.median(values), n)


class FailFracTests(unittest.TestCase):
    # The harness's own counting (BUSY replies, quarantined samples) is
    # tested against the running program in test_workloads.
    def test_clean_run(self):
        acc = dict(calls=10, calls_failed=0, samples=80, quarantined=0, busy=0,
                   checks=10, checks_failed=0)
        self.assertEqual(stats.fail_frac(acc), (100, 0, 0.0))

    def test_failed_checks_thrown_calls_and_quarantined_samples_add_up(self):
        acc = dict(calls=5, calls_failed=1, samples=10, quarantined=1, busy=0,
                   checks=5, checks_failed=2)
        self.assertEqual(stats.fail_frac(acc), (20, 4, 0.2))


class SelfTimeTests(unittest.TestCase):
    def test_children_are_subtracted_once_when_they_overlap(self):
        spans = [
            {"id": 1, "parent": 0, "start": 0.0, "end": 10.0, "name": "pass"},
            {"id": 2, "parent": 1, "start": 1.0, "end": 4.0, "name": "a"},
            {"id": 3, "parent": 1, "start": 3.0, "end": 6.0, "name": "b"},
            {"id": 4, "parent": 1, "start": 8.0, "end": 9.0, "name": "c"},
        ]
        self_time = stats.self_times(spans)
        self.assertAlmostEqual(self_time[1], 10.0 - 5.0 - 1.0)
        self.assertAlmostEqual(self_time[2], 3.0)
        self.assertAlmostEqual(self_time[3], 3.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [
            {"id": 1, "parent": 0, "start": 0.0, "end": 2.0, "name": "pass"},
            {"id": 2, "parent": 1, "start": 1.5, "end": 3.0, "name": "late"},
        ]
        self.assertAlmostEqual(stats.self_times(spans)[1], 1.5)


if __name__ == "__main__":
    unittest.main()
