"""Open-loop arithmetic: due times, latency, lateness, sustained rate.

Independent sensors do not wait for the system, so the paced segments of
``async-openloop-b1`` offer tuples on a fixed schedule and time each one
from the wall instant it was *due*, not from when the (possibly stalled)
generator got round to publishing it.  Pure functions over numbers; the
measurements come from ``sut.py``.
"""

from __future__ import annotations

import math

from .workloads import Segment, segment_of

#: A rate is sustained if its p95 latency and its end-of-segment
#: generator lateness both stay within this many milliseconds.
LIMIT_MS = 50.0


def due_base(scheduled: "list[float]", actual_s: "list[float]") -> float:
    """Wall instant of virtual time zero.

    The pacer sleeps until a publish is due and never runs early, so the
    smallest ``actual - scheduled`` over all publishes is the offset of
    the schedule on the wall clock (exactly so whenever a single publish
    was on time).
    """
    return min(a - s for s, a in zip(scheduled, actual_s))


def percentile(sorted_values: "list[float]", q: float) -> float:
    """Nearest-rank percentile of an ascending list (q in 0..100)."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def segment_stats(segments: "tuple[Segment, ...]", publishes, arrivals,
                  due_of: dict, expected_keys: set) -> "list[dict]":
    """Latency and lateness per segment of one paced pass.

    Args:
        publishes: ``(scheduled instant, wall seconds)`` per publish call.
        arrivals: ``(key, wall seconds)`` per tuple reaching the sink.
        due_of: key -> scheduled instant, for every offered tuple.
        expected_keys: keys the oracle says must reach the sink.

    A tuple that never arrives has infinite latency, so it counts as
    over any limit.
    """
    publishes = list(publishes)
    base = due_base([s for s, _ in publishes], [a for _, a in publishes])
    latencies = [[] for _ in segments]
    lateness = [[] for _ in segments]
    for scheduled, actual in publishes:
        i = segment_of(segments, scheduled)
        if i is not None:
            lateness[i].append((scheduled, (actual - base - scheduled) * 1e3))
    seen = set()
    for key, wall in arrivals:
        seen.add(key)
        i = segment_of(segments, due_of[key])
        if i is not None:
            latencies[i].append((wall - base - due_of[key]) * 1e3)
    for key in expected_keys - seen:
        i = segment_of(segments, due_of[key])
        if i is not None:
            latencies[i].append(math.inf)
    out = []
    for segment, lat, late in zip(segments, latencies, lateness):
        lat.sort()
        late.sort()                               # by scheduled instant
        late_ms = sorted(ms for _, ms in late)
        # Lateness over the last tenth of the segment: a backlog that is
        # still there when the segment ends.
        tail = [ms for _, ms in late[-max(1, len(late) // 10):]]
        stats = {
            "rate": segment.rate,
            "samples": len(lat),
            "p50_ms": percentile(lat, 50),
            "p95_ms": percentile(lat, 95),
            "p99_ms": percentile(lat, 99),
            "gen_late_p99_ms": percentile(late_ms, 99),
            "gen_late_end_ms": sum(tail) / len(tail),
        }
        stats["sustained"] = (stats["p95_ms"] <= LIMIT_MS
                              and stats["gen_late_end_ms"] <= LIMIT_MS)
        out.append(stats)
    return out


def sustained_rate(stats: "list[dict]") -> int:
    """Highest offered rate that was sustained, with every lower rate
    sustained too (0 if even the lowest was not)."""
    best = 0
    for segment in sorted(stats, key=lambda s: s["rate"]):
        if not segment["sustained"]:
            break
        best = segment["rate"]
    return best
