"""Tests for the benchmark's own arithmetic, on hand-built inputs.

  python3 perfbench/test_stats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


class QuantileTest(unittest.TestCase):
    def test_median_and_quartiles(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        # statistics.quantiles' default (exclusive) method.
        self.assertEqual(stats.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), (2.75, 5.5, 8.25))
        self.assertEqual(stats.quartiles([7]), (7, 7, 7))

    def test_relative_spread(self):
        self.assertAlmostEqual(stats.relative_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
                               (8.25 - 2.75) / 5.5)
        self.assertEqual(stats.relative_spread([5, 5, 5, 5]), 0.0)

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([42], 99), 42)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class PercentileChoiceTest(unittest.TestCase):
    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        self.assertEqual(stats.samples_beyond(999, 99), 9)
        self.assertEqual(stats.samples_beyond(100, 50), 50)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.highest_percentile(100000), 99.99)
        self.assertEqual(stats.highest_percentile(10000), 99.9)
        self.assertEqual(stats.highest_percentile(9999), 99.0)
        self.assertEqual(stats.highest_percentile(1000), 99.0)
        self.assertEqual(stats.highest_percentile(999), 90.0)
        self.assertEqual(stats.highest_percentile(100), 90.0)
        self.assertEqual(stats.highest_percentile(20), 50.0)
        self.assertIsNone(stats.highest_percentile(19))


class SelfTimeTest(unittest.TestCase):
    def test_union_merges_overlaps_and_drops_empty(self):
        self.assertEqual(stats.union([(5, 7), (0, 2), (1, 3), (3, 4), (9, 9)]),
                         [(0, 4), (5, 7)])

    def test_covered_clips_to_windows(self):
        self.assertEqual(stats.covered([(0, 10)]), 10)
        self.assertEqual(stats.covered([(0, 10), (20, 30)], [(5, 25)]), 10)
        self.assertEqual(stats.covered([(0, 4), (2, 6)], [(1, 3), (5, 9)]), 3)

    def test_self_time_without_children(self):
        self.assertEqual(stats.self_time((0, 100), []), 100)

    def test_self_time_with_disjoint_children(self):
        self.assertEqual(stats.self_time((0, 100), [(10, 20), (50, 70)]), 70)

    def test_self_time_with_overlapping_children(self):
        # Parallel workers: 10..40 and 30..60 overlap; counted once (50).
        self.assertEqual(stats.self_time((0, 100), [(10, 40), (30, 60)]), 50)

    def test_self_time_clips_children_outside_the_span(self):
        self.assertEqual(stats.self_time((0, 100), [(-20, 10), (90, 130)]), 80)


class RoundInferenceTest(unittest.TestCase):
    # Two rounds of two tests: issue, issue, (workers), report, report.
    ISSUES = [(0, 0, 1), (1, 1, 2), (2, 20, 21), (3, 21, 22)]
    REPORTS = [(0, 12, 13), (1, 14, 15), (2, 35, 36), (3, 37, 38)]
    RUNS = {0: (4, 9), 1: (3, 11), 2: (24, 30), 3: (25, 33)}

    def test_rounds_from_issue_and_report_timestamps(self):
        rounds = stats.infer_rounds(self.ISSUES, self.REPORTS)
        self.assertEqual([r["tests"] for r in rounds], [[0, 1], [2, 3]])
        self.assertEqual((rounds[0]["first_issue_start"], rounds[0]["last_issue_end"],
                          rounds[0]["first_report_start"], rounds[0]["last_report_end"]),
                         (0, 2, 12, 15))
        self.assertEqual(rounds[1]["first_report_start"] - rounds[1]["first_issue_start"], 15)

    def test_serial_loop_is_one_test_per_round(self):
        rounds = stats.infer_rounds([(0, 0, 1), (1, 10, 11)], [(0, 5, 6), (1, 15, 16)])
        self.assertEqual([r["tests"] for r in rounds], [[0], [1]])

    def test_trailing_round_without_reports_is_dropped(self):
        rounds = stats.infer_rounds([(0, 0, 1), (1, 10, 11)], [(0, 5, 6)])
        self.assertEqual([r["tests"] for r in rounds], [[0]])

    def test_report_before_issue_is_rejected(self):
        with self.assertRaises(ValueError):
            stats.infer_rounds([(0, 5, 6)], [(0, 1, 2)])

    def test_dispatch_and_barrier_waits(self):
        rounds = stats.infer_rounds(self.ISSUES, self.REPORTS)
        dispatch, barrier, gaps = stats.round_waits(rounds, self.RUNS)
        # dispatch = worker start - last issue end; barrier = first report - worker end.
        self.assertEqual(dispatch, [2, 1, 2, 3])
        self.assertEqual(barrier, [3, 1, 5, 2])
        self.assertEqual(gaps, [(2, 3), (11, 12), (22, 24), (33, 35)])


class VerdictTest(unittest.TestCase):
    PARENT = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]

    def test_improved_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_spread(self):
        change = [v + 20 for v in self.PARENT]
        self.assertEqual(stats.verdict(self.PARENT, change, "higher", 0.1), "improved")
        self.assertEqual(stats.verdict(self.PARENT, [v - 20 for v in self.PARENT],
                                       "lower", 0.1), "improved")

    def test_small_win_inside_the_spread_is_unchanged(self):
        change = [v + 1 for v in self.PARENT]
        self.assertEqual(stats.verdict(self.PARENT, change, "higher", 0.1), "unchanged")

    def test_regressed_beyond_the_bound(self):
        change = [v * 0.8 for v in self.PARENT]
        self.assertEqual(stats.verdict(self.PARENT, change, "higher", 0.1), "regressed")
        self.assertEqual(stats.verdict(self.PARENT, [v * 1.2 for v in self.PARENT],
                                       "lower", 0.1), "regressed")

    def test_wide_spread_is_unresolved(self):
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        self.assertEqual(stats.verdict(self.PARENT, noisy, "higher", 0.1), "unresolved")

    def test_wide_spread_but_every_run_better_is_not_unresolved(self):
        parent = [80, 120, 90, 110, 100]  # quartiles 85 / 115: wider than the bound
        change = [121, 122, 123, 124, 125]  # all better, but the gap (23) < 30
        self.assertEqual(stats.verdict(parent, change, "higher", 0.05), "unchanged")
        self.assertEqual(stats.verdict(parent, [101, 102, 103, 104, 105], "higher", 0.05),
                         "unresolved")


if __name__ == "__main__":
    unittest.main()
