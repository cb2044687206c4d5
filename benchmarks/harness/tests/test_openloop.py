"""Open-loop arithmetic."""

import math

from benchmarks.harness import openloop
from benchmarks.harness.workloads import Segment


def test_due_base_recovers_a_known_offset():
    scheduled = [0.1 * i for i in range(50)]
    offset = 1234.5
    # Every publish is late by a different amount, one of them by nothing.
    late = [0.003 * ((i * 7) % 11) for i in range(50)]
    assert min(late) == 0.0
    actual = [offset + s + d for s, d in zip(scheduled, late)]
    assert abs(openloop.due_base(scheduled, actual) - offset) < 1e-9


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert openloop.percentile(values, 50) == 50
    assert openloop.percentile(values, 95) == 95
    assert openloop.percentile(values, 100) == 100
    assert openloop.percentile([3.0], 99) == 3.0


def _one_segment(latency_s, missing=(), lateness_s=0.0):
    segment = Segment(rate=100, start=0.0, measure_from=0.1, end=1.0)
    due = {("s", i): 0.005 + i * 0.01 for i in range(100)}
    base = 50.0
    publishes = [(at, base + at + (lateness_s if at > 0.5 else 0.0))
                 for at in due.values()]
    arrivals = [(key, base + at + latency_s)
                for key, at in due.items() if key not in missing]
    return openloop.segment_stats(
        (segment,), publishes, arrivals, due, set(due))[0]


def test_latency_is_measured_from_the_due_instant():
    stats = _one_segment(0.004)
    assert stats["samples"] == 90          # warm-up arrivals are dropped
    assert abs(stats["p50_ms"] - 4.0) < 1e-6
    assert abs(stats["p95_ms"] - 4.0) < 1e-6
    assert stats["gen_late_end_ms"] < 1e-6
    assert stats["sustained"]


def test_a_tuple_never_sunk_counts_as_over_the_limit():
    missing = {("s", i) for i in range(40, 60)}
    stats = _one_segment(0.004, missing=missing)
    assert stats["samples"] == 90
    assert math.isinf(stats["p95_ms"])
    assert not stats["sustained"]


def test_a_growing_backlog_is_not_sustained():
    stats = _one_segment(0.004, lateness_s=0.2)
    assert stats["gen_late_end_ms"] > openloop.LIMIT_MS
    assert not stats["sustained"]


def test_sustained_rate_stops_at_the_first_failing_step():
    ladder = [{"rate": 2000, "sustained": True},
              {"rate": 4000, "sustained": True},
              {"rate": 8000, "sustained": False}]
    assert openloop.sustained_rate(ladder) == 4000
    ladder[0]["sustained"] = False
    assert openloop.sustained_rate(ladder) == 0
