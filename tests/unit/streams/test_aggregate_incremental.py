"""Incremental aggregation accumulators vs the rescan reference.

``AggregationOperator`` maintains per-group running count/sum/min/max and
a running bounding box; these tests pin its flush against
``_aggregate_group`` (the rescan-every-flush reference) over the same
window, and pin that the accumulators are rebuilt faithfully across
``checkpoint()``/``restore()``.  ``tests/oracle/test_flush_oracle.py``
drives the same comparison over generated windows.

AVG/SUM use approximate comparison: a running sum that added and
subtracted can differ from numpy's pairwise summation in the last bits.
"""

import pytest

from repro.streams.aggregate import AggregationOperator
from repro.streams.tuple import SensorTuple
from repro.stt.event import SttStamp
from repro.stt.spatial import Point

FUNCTIONS = ["COUNT", "AVG", "SUM", "MIN", "MAX"]


def make_tuple(i, station="st-0", value=None, at=None, payload=None):
    return SensorTuple(
        payload=payload if payload is not None else {
            "station": station,
            "temperature": value if value is not None else float(i % 13),
        },
        stamp=SttStamp(
            time=float(i) if at is None else at,
            location=Point(34.5 + (i % 5) * 0.01, 135.3 + (i % 3) * 0.01),
        ),
        source="test",
        seq=i,
    )


def aggregation(function, **kwargs):
    return AggregationOperator(
        interval=60.0, attributes=["temperature"], function=function, **kwargs)


def flush_and_reference(op, now):
    """Flush ``op`` at ``now``; return its output and the reference's.

    The reference rescans the window the flush sees — the cache after the
    same prune, grouped and ordered as the operator orders groups — one
    ``_aggregate_group`` call per group.
    """
    if op.window is not None:
        op.cache.prune(before=now - op.window)  # as the flush will
    groups: dict = {}
    for tuple_ in op.cache:
        key = None if op.group_by is None else tuple_.get(op.group_by)
        groups.setdefault(key, []).append(tuple_)
    ordered = sorted(groups.items(), key=lambda item: str(item[0]))
    out = op.on_timer(now)
    expected = [
        op._aggregate_group(key, members, now, offset)
        for offset, (key, members) in enumerate(ordered)
    ]
    return out, expected


def assert_outputs_match(kernel, reference):
    assert len(kernel) == len(reference)
    for inc, ref in zip(kernel, reference):
        assert set(inc.payload) == set(ref.payload)
        for key, ref_value in ref.payload.items():
            if isinstance(ref_value, float):
                assert inc.payload[key] == pytest.approx(ref_value, abs=1e-9)
            else:
                assert inc.payload[key] == ref_value
        assert inc.stamp == ref.stamp
        assert inc.source == ref.source
        assert inc.seq == ref.seq


class TestFlushParity:
    @pytest.mark.parametrize("function", FUNCTIONS)
    def test_tumbling_grouped(self, function):
        op = aggregation(function, group_by="station")
        for i in range(200):
            op.on_tuple(make_tuple(i, station=f"st-{i % 4}"))
        assert_outputs_match(*flush_and_reference(op, 60.0))
        # Tumbling consumed the window: the next flush is empty.
        assert op.on_timer(120.0) == []

    @pytest.mark.parametrize("function", FUNCTIONS)
    def test_sliding_window_prunes_identically(self, function):
        op = aggregation(function, window=100.0, group_by="station")
        for i in range(300):
            op.on_tuple(make_tuple(i, station=f"st-{i % 3}", at=float(i)))
        for now in (300.0, 360.0):
            assert_outputs_match(*flush_and_reference(op, now))

    def test_cache_overflow_evictions_tracked(self):
        # A tiny cache forces evictions through on_evict; accumulators must
        # retire the departed tuples exactly like the rescan of what's left.
        op = aggregation("MIN", group_by="station", max_cache=25)
        for i in range(120):
            op.on_tuple(
                make_tuple(i, station=f"st-{i % 4}", value=float((i * 7) % 31)))
        assert_outputs_match(*flush_and_reference(op, 60.0))

    def test_eviction_of_extremum_recomputes(self):
        op = aggregation("MAX", max_cache=3)
        for i, value in enumerate([50.0, 1.0, 2.0, 3.0]):  # 50.0 evicted
            op.on_tuple(make_tuple(i, value=value))
        [out] = op.on_timer(60.0)
        assert out.payload["max_temperature"] == 3.0

    def test_null_and_non_numeric_values_fall_back(self):
        # Non-numeric values can't be accumulated; that attribute rescans
        # at flush and must match the reference, nulls excluded.
        op = aggregation("COUNT")
        payloads = [
            {"temperature": 1.5}, {"temperature": None}, {"temperature": True},
            {"temperature": 3}, {},
        ]
        for i, payload in enumerate(payloads):
            op.on_tuple(make_tuple(i, payload=dict(payload)))
        assert_outputs_match(*flush_and_reference(op, 60.0))

    def test_all_null_group_emits_none(self):
        op = aggregation("AVG")
        for i in range(3):
            op.on_tuple(make_tuple(i, payload={"station": "st-0"}))
        out, expected = flush_and_reference(op, 60.0)
        assert out[0].payload["avg_temperature"] is None
        assert_outputs_match(out, expected)


class TestCheckpointRestore:
    @pytest.mark.parametrize("function", ["AVG", "MIN", "COUNT"])
    def test_accumulators_survive_restore(self, function):
        op = aggregation(function, group_by="station", window=500.0)
        for i in range(150):
            op.on_tuple(make_tuple(i, station=f"st-{i % 3}", at=float(i)))
        state = op.checkpoint()

        restored = aggregation(function, group_by="station", window=500.0)
        restored.restore(state)
        assert set(restored._groups) == set(op._groups)

        # Both continue identically: same new tuples, same flush output.
        for i in range(150, 200):
            tuple_ = make_tuple(i, station=f"st-{i % 3}", at=float(i))
            op.on_tuple(tuple_)
            restored.on_tuple(tuple_)
        assert_outputs_match(restored.on_timer(200.0), op.on_timer(200.0))

    def test_restored_matches_rescan_reference(self):
        # The rebuilt accumulators must agree with a rescan of the window
        # restored from the same checkpoint.
        op = aggregation("SUM", group_by="station", window=400.0)
        for i in range(100):
            op.on_tuple(make_tuple(i, station=f"st-{i % 2}", at=float(i)))
        restored = aggregation("SUM", group_by="station", window=400.0)
        restored.restore(op.checkpoint())
        assert_outputs_match(*flush_and_reference(restored, 100.0))

    def test_reset_clears_accumulators(self):
        op = aggregation("AVG")
        op.on_tuple(make_tuple(0))
        assert op._groups
        op.reset()
        assert not op._groups
        assert op.on_timer(60.0) == []
