"""Arithmetic the benchmark reports with, kept apart from the process
plumbing in run.py so that test_benchlib.py can check it on its own."""

import math
import statistics

# Percentiles the tail rule may pick, highest first.
TAIL_PERCENTILES = (99, 95, 90, 75, 50)


def median(values):
    return statistics.median(values)


def tail_percentile(values, min_beyond=10):
    """The highest of TAIL_PERCENTILES whose nearest-rank sample has at least
    `min_beyond` samples beyond it, as (percentile, value); None when even
    the median has fewer (fewer than 2 * min_beyond samples)."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p * n / 100)  # 1-based nearest rank
        if rank >= 1 and n - rank >= min_beyond:
            return p, ordered[rank - 1]
    return None


def open_loop_latency(due, end):
    """Latency of an open-loop request, timed from when it was due to be
    sent: a stall that delays later sends counts against them."""
    return end - due


def generator_lateness(due, pick, start):
    """How late the generator itself sent a request: the gap between the
    moment it could have sent (due, or later when every connection was busy
    until `pick`) and the actual send."""
    return start - max(due, pick)


def covered(interval, others):
    """Length of `interval` covered by the union of `others` (all (start,
    end) pairs); overlapping parts count once, parts outside are clipped."""
    lo, hi = interval
    clipped = sorted((max(lo, s), min(hi, e)) for s, e in others if min(hi, e) > max(lo, s))
    total, cur_s, cur_e = 0.0, None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(span, children):
    """A span's self time: its duration minus the part its children cover."""
    return (span[1] - span[0]) - covered(span, children)


class Tally:
    """Operations attempted and failed. An operation is a CLI run, a serve
    request, a sweep method or a correctness check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, ok, reason=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)
        return ok

    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0


def latencies_with_failures(latencies, oks):
    """A failed or refused request misses every latency limit: it enters the
    distribution as infinitely late."""
    return [lat if ok else math.inf for lat, ok in zip(latencies, oks)]


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4)
    gives them: the steadiness measure the bounds are set against."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
