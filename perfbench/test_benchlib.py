#!/usr/bin/env python3
"""Self-tests for the benchmark's own arithmetic.

    python3 perfbench/test_benchlib.py
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        # 100 samples: the nearest-rank p90 is the 90th, with 10 beyond it;
        # p95 would leave only 5 beyond.
        self.assertEqual(benchlib.tail_percentile(range(1, 101)), (90, 90))

    def test_falls_back_to_lower_percentile(self):
        # 60 samples: p90 (rank 54) leaves 6 beyond, p75 (rank 45) leaves 15.
        self.assertEqual(benchlib.tail_percentile(range(1, 61)), (75, 45))

    def test_order_of_input_does_not_matter(self):
        values = [float(v) for v in range(200, 0, -1)]
        self.assertEqual(benchlib.tail_percentile(values), (95, 190.0))

    def test_too_few_samples(self):
        # 19 samples: even the median (rank 10) has only 9 beyond it.
        self.assertIsNone(benchlib.tail_percentile(range(19)))
        self.assertEqual(benchlib.tail_percentile(range(1, 21)), (50, 10))


class OpenLoop(unittest.TestCase):
    def test_latency_counts_from_the_scheduled_time(self):
        # Due at 100 ms, sent at 130 ms because every connection was busy,
        # reply at 150 ms: the user waited 50 ms, not the 20 ms round trip.
        self.assertEqual(benchlib.open_loop_latency(100.0, 150.0), 50.0)

    def test_waiting_for_a_connection_is_not_generator_lateness(self):
        # Picked up at 128 ms (a connection freed), sent at 130 ms.
        self.assertEqual(benchlib.generator_lateness(100.0, 128.0, 130.0), 2.0)

    def test_lateness_of_an_idle_generator(self):
        # Picked up early at 90 ms, slept until due, woke 0.5 ms late.
        self.assertEqual(benchlib.generator_lateness(100.0, 90.0, 100.5), 0.5)

    def test_failed_request_misses_every_latency_limit(self):
        lat = benchlib.latencies_with_failures([10.0, 20.0, 30.0], [True, False, True])
        self.assertEqual(lat[1], math.inf)
        self.assertEqual(benchlib.median(lat), 30.0)


class SelfTime(unittest.TestCase):
    def test_disjoint_children(self):
        self.assertEqual(benchlib.self_time((0, 100), [(10, 20), (50, 80)]), 60)

    def test_overlapping_children_count_once(self):
        self.assertEqual(benchlib.self_time((0, 100), [(10, 40), (30, 60)]), 50)

    def test_children_outside_the_span_are_clipped(self):
        self.assertEqual(benchlib.self_time((10, 20), [(0, 15), (18, 30), (40, 50)]), 3)

    def test_no_children(self):
        self.assertEqual(benchlib.self_time((5, 12), []), 7)


class FailedFraction(unittest.TestCase):
    def test_counts_failures_against_attempts(self):
        tally = benchlib.Tally()
        for ok in (True, True, False, True):
            tally.record(ok, "reply differs")
        self.assertEqual((tally.attempted, tally.failed), (4, 1))
        self.assertEqual(tally.failed_frac(), 0.25)
        self.assertEqual(tally.reasons, ["reply differs"])

    def test_nothing_attempted_is_a_total_failure(self):
        self.assertEqual(benchlib.Tally().failed_frac(), 1.0)


class Spread(unittest.TestCase):
    def test_quartile_spread_is_a_share_of_the_median(self):
        # statistics.quantiles([1..9], n=4) gives Q1 2.5 and Q3 7.5.
        self.assertAlmostEqual(benchlib.quartile_spread(range(1, 10)), 1.0)


if __name__ == "__main__":
    unittest.main()
