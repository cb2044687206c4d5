"""Unit tests for the lineage store and the blocking operators' records."""

from repro.obs.lineage import LineageStore, tuple_key
from repro.streams.aggregate import AggregationOperator
from repro.streams.join import JoinOperator
from repro.streams.tuple import SensorTuple
from repro.stt.event import SttStamp
from repro.stt.spatial import Point


def make_tuple(source: str, seq: int, **payload) -> SensorTuple:
    return SensorTuple(
        payload=payload or {"temperature": 20.0},
        stamp=SttStamp(time=float(seq), location=Point(34.7, 135.5)),
        source=source,
        seq=seq,
    )


class TestLineageStore:
    def test_explain_resolves_transitively(self):
        store = LineageStore()
        a, b = make_tuple("s", 1), make_tuple("s", 2)
        mid = make_tuple("agg", 0)
        out = make_tuple("join", 0)
        store.record(mid, [a, b], "agg", 60.0)
        store.record(out, [mid, make_tuple("t", 9)], "join", 120.0)
        assert store.explain(tuple_key(out)) == ["s#1", "s#2", "t#9"]

    def test_unrecorded_key_is_its_own_source(self):
        assert LineageStore().explain("rain-1#4") == ["rain-1#4"]

    def test_inputs_only_direct_contributors(self):
        store = LineageStore()
        out = make_tuple("agg", 0)
        store.record(out, [make_tuple("s", 1)], "agg", 60.0)
        assert store.inputs(tuple_key(out)) == ("s#1",)
        assert store.inputs("s#1") is None

    def test_diamond_lineage_deduplicates(self):
        store = LineageStore()
        shared = make_tuple("s", 1)
        left = make_tuple("aggL", 0)
        right = make_tuple("aggR", 0)
        top = make_tuple("join", 0)
        store.record(left, [shared], "aggL", 60.0)
        store.record(right, [shared], "aggR", 60.0)
        store.record(top, [left, right], "join", 120.0)
        assert store.explain(tuple_key(top)) == ["s#1"]

    def test_fifo_eviction_is_bounded(self):
        store = LineageStore(max_records=2)
        outs = [make_tuple("agg", i) for i in range(4)]
        for i, out in enumerate(outs):
            store.record(out, [make_tuple("s", i)], "agg", 0.0)
        assert len(store) == 2
        assert store.evicted == 2
        assert store.inputs("agg#0") is None
        assert store.inputs("agg#3") == ("s#3",)


class TestOperatorRecording:
    def test_aggregation_records_window_members(self):
        op = AggregationOperator(interval=60.0, attributes=["temperature"],
                                 function="AVG")
        store = LineageStore()
        op.lineage = store
        inputs = [make_tuple("temp-1", i, temperature=20.0 + i) for i in range(3)]
        for t in inputs:
            op.on_tuple(t)
        emitted = op.on_timer(60.0)
        assert len(emitted) == 1
        assert store.explain(tuple_key(emitted[0])) == [
            "temp-1#0", "temp-1#1", "temp-1#2",
        ]

    def test_join_records_the_matched_pair(self):
        op = JoinOperator(interval=60.0,
                          predicate="left.station == right.station")
        store = LineageStore()
        op.lineage = store
        op.on_tuple(make_tuple("a", 1, station="umeda"), port=0)
        op.on_tuple(make_tuple("b", 7, station="umeda"), port=1)
        emitted = op.on_timer(60.0)
        assert len(emitted) == 1
        assert set(store.inputs(tuple_key(emitted[0]))) == {"a#1", "b#7"}

    def test_without_store_no_recording_happens(self):
        op = AggregationOperator(interval=60.0, attributes=["temperature"],
                                 function="AVG")
        op.on_tuple(make_tuple("temp-1", 0))
        assert op.on_timer(60.0)  # emits fine with lineage unset
