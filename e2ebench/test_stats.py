"""Unit tests for the benchmark's own helpers.

Run from the repository root:

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        for n in range(1, 5000):
            pct = stats.tail_percentile(n)
            if pct is None:
                self.assertLess(n, 2 * stats.MIN_BEYOND)
                continue
            self.assertGreaterEqual(stats.samples_beyond(n, pct),
                                    stats.MIN_BEYOND)
            # No higher ladder step would still qualify.
            for higher in stats.TAIL_LADDER:
                if higher > pct:
                    self.assertLess(stats.samples_beyond(n, higher),
                                    stats.MIN_BEYOND)

    def test_known_sizes(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(39), 50.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(99), 75.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(9999), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_tail_value_has_ten_larger_samples(self):
        values = [float(i) for i in range(100)]  # 0..99
        pct, value, n = stats.tail(list(reversed(values)))
        self.assertEqual((pct, n), (90.0, 100))
        self.assertEqual(value, 89.0)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_too_few_samples_raise(self):
        with self.assertRaises(ValueError):
            stats.tail([1.0] * 19)

    def test_median(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 2.0, 3.0]), 2.5)


class FailedFrac(unittest.TestCase):
    def test_participants_and_calls(self):
        counts = {"participants": 40, "dropped": 3, "rejected": 2, "cut": 1,
                  "probation": 4, "completed": 30, "calls": 60, "throws": 0}
        self.assertEqual(stats.failure_accounting(counts), (100, 6))
        self.assertAlmostEqual(stats.failed_frac(counts), 0.06)

    def test_probation_and_straggled_are_not_failures(self):
        counts = {"participants": 10, "completed": 6, "probation": 4,
                  "straggled": 5, "calls": 0}
        self.assertEqual(stats.failed_frac(counts), 0.0)

    def test_throwing_calls_count(self):
        counts = {"participants": 0, "calls": 8, "throws": 2}
        self.assertEqual(stats.failure_accounting(counts), (8, 2))
        self.assertEqual(stats.failed_frac(counts), 0.25)

    def test_nothing_attempted(self):
        with self.assertRaises(ValueError):
            stats.failed_frac({})


def span(sid, parent, name, start, end):
    return {"id": sid, "parent": parent, "name": name, "start_us": start,
            "end_us": end}


class SelfTime(unittest.TestCase):
    def test_leaf_is_its_duration(self):
        self.assertEqual(stats.self_times([span(0, -1, "a", 5.0, 9.0)]),
                         {"a": 4.0})

    def test_children_are_subtracted(self):
        spans = [span(0, -1, "round", 0.0, 100.0),
                 span(1, 0, "train", 10.0, 40.0),
                 span(2, 0, "aggregate", 50.0, 70.0),
                 span(3, 1, "gemm", 15.0, 25.0)]
        got = stats.self_times(spans)
        self.assertEqual(got["round"], 50.0)
        self.assertEqual(got["train"], 20.0)  # grandchild only hits train
        self.assertEqual(got["aggregate"], 20.0)
        self.assertEqual(got["gemm"], 10.0)

    def test_overlapping_children_counted_once(self):
        spans = [span(0, -1, "p", 0.0, 10.0),
                 span(1, 0, "c", 2.0, 6.0),
                 span(2, 0, "c", 4.0, 8.0)]
        got = stats.self_times(spans)
        self.assertEqual(got["p"], 4.0)  # covered: [2, 8]
        self.assertEqual(got["c"], 8.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(0, -1, "p", 0.0, 10.0), span(1, 0, "c", 8.0, 15.0)]
        self.assertEqual(stats.self_times(spans)["p"], 8.0)

    def test_same_name_sums(self):
        spans = [span(0, -1, "r", 0.0, 3.0), span(1, -1, "r", 5.0, 6.0)]
        self.assertEqual(stats.self_times(spans), {"r": 4.0})


if __name__ == "__main__":
    unittest.main()
