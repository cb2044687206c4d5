"""Incremental aggregation accumulators vs the rescan reference.

Hand-picked windows run through the flush oracle's check: the flush of
the running count/sum/min/max and bounding box equals
``_aggregate_group`` (the rescan reference), and ``checkpoint()`` /
``restore()`` rebuild the accumulators faithfully.
"""

import pytest

from repro.streams.aggregate import AggregationOperator
from repro.streams.tuple import SensorTuple
from repro.stt.event import SttStamp
from repro.stt.spatial import Point
from tests.oracle.test_flush_oracle import (
    _config, _reading, check_aggregate_flush,
)

FUNCTIONS = ["COUNT", "AVG", "SUM", "MIN", "MAX"]


def make_tuple(i, station="st-0", at=None):
    return SensorTuple(
        payload={"station": station, "temperature": float(i % 13)},
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


def readings(values, stations=1, flush_at=()):
    """Flush-oracle rows: ``values`` in order, station ``i % stations``."""
    return [{**_reading(value, flush=i in flush_at), "station": i % stations}
            for i, value in enumerate(values)]


def assert_outputs_match(kernel, reference):
    assert [(t.seq, t.source, t.stamp, dict(t.payload)) for t in kernel] == [
        (t.seq, t.source, t.stamp, dict(t.payload)) for t in reference]


class TestFlushParity:
    """The kernel against the rescan reference on hand-picked windows;
    ``test_flush_oracle`` draws the general case."""

    @pytest.mark.parametrize("function", FUNCTIONS)
    def test_tumbling_grouped(self, function):
        check_aggregate_flush(
            readings([float(i % 13) for i in range(200)], stations=4,
                     flush_at=(99,)),
            _config(function, group_by="station"))

    @pytest.mark.parametrize("function", FUNCTIONS)
    def test_sliding_window_prunes_identically(self, function):
        check_aggregate_flush(
            readings([float(i % 13) for i in range(300)], stations=3,
                     flush_at=(199,)),
            _config(function, window=100.0, group_by="station"))

    def test_cache_overflow_evictions_tracked(self):
        # A tiny cache forces evictions through on_evict; accumulators must
        # retire the departed tuples exactly like the rescan of what's left.
        check_aggregate_flush(
            readings([float((i * 7) % 31) for i in range(120)], stations=4),
            _config("MIN", max_cache=25, group_by="station"))

    def test_eviction_of_extremum_recomputes(self):
        op = aggregation("MAX", max_cache=3)
        for i, value in enumerate([50.0, 1.0, 2.0, 3.0]):  # 50.0 evicted
            op.on_tuple(make_tuple(i).with_owned_payload({"temperature": value}))
        [out] = op.on_timer(60.0)
        assert out.payload["max_temperature"] == 3.0

    def test_null_and_non_numeric_values_fall_back(self):
        # Non-numeric values can't be accumulated; that attribute rescans
        # at flush and must match the reference, nulls excluded.
        check_aggregate_flush(readings([1.5, None, True, 3, "7"]),
                              _config("COUNT"))

    def test_all_null_group_emits_none(self):
        op = aggregation("AVG")
        for i in range(3):
            op.on_tuple(make_tuple(i).with_owned_payload({"station": "st-0"}))
        assert op.on_timer(60.0)[0].payload["avg_temperature"] is None
        check_aggregate_flush(readings([None] * 3), _config("AVG"))


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
        drawn = readings([float(i % 13) for i in range(100)], stations=2)
        drawn[-1]["restore"] = True
        check_aggregate_flush(drawn, _config("SUM", window=400.0,
                                             group_by="station"))

    def test_reset_clears_accumulators(self):
        op = aggregation("AVG")
        op.on_tuple(make_tuple(0))
        assert op._groups
        op.reset()
        assert not op._groups
        assert op.on_timer(60.0) == []
