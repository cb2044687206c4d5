"""Unit tests for the shard adapter, merge operator, and partitioner."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CheckpointError, StreamLoaderError
from repro.streams.aggregate import AggregationOperator
from repro.streams.filter import FilterOperator
from repro.streams.join import JoinOperator
from repro.streams.shard import (
    ENTRIES_KEY, EPOCH_KEY, SHARD_KEY, ShardAssignment, ShardMergeOperator,
    ShardedOperatorAdapter, partition_index, shard_index, split_by_shard,
)
from repro.streams.tuple import SensorTuple
from repro.stt.event import SttStamp
from repro.stt.spatial import Point


def make_agg(**kwargs):
    return AggregationOperator(interval=10.0, attributes=["temperature"],
                               function="SUM", group_by="station", **kwargs)


def adapter(index=0, count=2):
    return ShardedOperatorAdapter(make_agg(), shard_index=index,
                                  shard_count=count)


@pytest.fixture
def merge():
    return ShardMergeOperator(2, "aggregate")


class TestPartitionIndex:
    def test_deterministic_across_calls(self):
        values = ("st-3", 42)
        assert partition_index(values, 4) == partition_index(values, 4)

    def test_within_range(self):
        for key in range(100):
            assert 0 <= partition_index((f"k{key}",), 7) < 7

    def test_single_shard_always_zero(self):
        assert partition_index(("anything",), 1) == 0

    def test_distinct_keys_spread(self):
        indexes = {partition_index((f"st-{i}",), 4) for i in range(64)}
        assert indexes == {0, 1, 2, 3}


#: Key values whose ``==`` crosses types (``1 == 1.0 == True``,
#: ``0 == -0.0 == False``), that equal nothing (NaN), and that look alike
#: but differ (``"1"``, ``0.5``).
SCALARS = (0, 1, 2, 0.0, -0.0, 1.0, 2.0, 0.5, True, False, None, "1", "a",
           math.nan, math.inf, -math.inf)
scalars = st.sampled_from(SCALARS)
#: ``...`` leaves the key out of the payload; a list has no hash.
key_values = st.one_of(scalars, st.just(...), st.just([1]))
KEY_SETS = (("k",), ("k", "j"))


def _keyed(seq: int, values: dict) -> SensorTuple:
    return SensorTuple(
        payload={name: v for name, v in values.items() if v is not ...},
        stamp=SttStamp(time=float(seq), location=Point(0.0, 0.0)),
        source="s", seq=seq)


@st.composite
def assignments(draw, keys):
    """A recipe for a :class:`ShardAssignment` (or none): count, then
    migrations and splits of drawn keys, in drawn order."""
    if draw(st.booleans()):
        return None
    count = draw(st.integers(1, 4))
    shard = st.integers(0, count - 1)
    key = st.tuples(*[scalars] * len(keys))
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("migrate"), key, shard),
        st.tuples(st.just("split"), key,
                  st.lists(shard, min_size=1, max_size=3))), max_size=6))
    return count, steps


def _build(recipe):
    if recipe is None:
        return None
    count, steps = recipe
    assignment = ShardAssignment(count)
    for step, key, target in steps:
        getattr(assignment, step)(key, target)
    return assignment


def _outcome(route):
    """What ``route()`` returns, or the type of what it raised."""
    try:
        return route()
    except TypeError as error:  # an unhashable key meets the overlay
        return type(error)


class TestSplitByShard:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), keys=st.sampled_from(KEY_SETS))
    def test_buckets_are_shard_index_tuple_by_tuple(self, data, keys):
        rows = data.draw(st.lists(
            st.fixed_dictionaries({"k": key_values, "j": key_values}),
            max_size=24))
        tuples = [_keyed(seq, values) for seq, values in enumerate(rows)]
        recipe = data.draw(assignments(keys))
        count = recipe[0] if recipe is not None else data.draw(st.integers(1, 4))
        batched, single = _build(recipe), _build(recipe)

        def one_by_one():
            buckets: dict = {}
            for tuple_ in tuples:
                index = shard_index(tuple_, keys, count, single)
                buckets.setdefault(index, []).append(tuple_)
            return sorted(buckets.items())

        got = _outcome(lambda: split_by_shard(tuples, keys, count, batched))
        assert got == _outcome(one_by_one)
        if recipe is not None and got is not TypeError:
            assert batched._rr == single._rr  # the split keys' turns

    @given(a=st.tuples(scalars, scalars), b=st.tuples(scalars, scalars),
           count=st.integers(1, 8))
    def test_equal_keys_get_one_partition(self, a, b, count):
        if a[0] == b[0]:
            assert (partition_index(a[:1], count)
                    == partition_index(b[:1], count))
        if a == b:
            assert partition_index(a, count) == partition_index(b, count)


class TestShardedOperatorAdapter:
    def test_rejects_non_blocking_inner(self):
        with pytest.raises(StreamLoaderError, match="blocking"):
            ShardedOperatorAdapter(FilterOperator("temperature > 0"),
                                   shard_index=0, shard_count=2)

    def test_mirrors_inner_shape(self):
        wrapped = adapter()
        assert wrapped.interval == 10.0
        assert wrapped.is_blocking
        assert wrapped.checkpointable
        assert wrapped.input_ports == 1

    def test_flush_emits_one_envelope(self, make_tuple):
        wrapped = adapter()
        wrapped.on_tuple(make_tuple(0, station="a"))
        wrapped.on_tuple(make_tuple(1, station="b"))
        out = wrapped.on_timer(10.0)
        assert len(out) == 1
        envelope = out[0]
        assert envelope.payload[SHARD_KEY] == 0
        assert envelope.payload[EPOCH_KEY] == 10.0
        entries = envelope.payload[ENTRIES_KEY]
        assert [key for key, _ in entries] == sorted(key for key, _ in entries)

    def test_empty_flush_still_emits_punctuation(self):
        wrapped = adapter()
        out = wrapped.on_timer(10.0)
        assert len(out) == 1
        assert out[0].payload[ENTRIES_KEY] == ()

    def test_envelope_seq_increments(self):
        wrapped = adapter()
        first = wrapped.on_timer(10.0)[0]
        second = wrapped.on_timer(20.0)[0]
        assert (first.seq, second.seq) == (0, 1)

    def test_checkpoint_round_trip(self, make_tuple):
        wrapped = adapter()
        wrapped.on_tuple(make_tuple(0, station="a"))
        wrapped.on_timer(10.0)
        wrapped.on_tuple(make_tuple(1, station="b"))
        snapshot = wrapped.checkpoint()
        fresh = adapter()
        fresh.restore(snapshot)
        assert fresh.checkpoint() == snapshot

    def test_restore_rejects_foreign_state(self):
        with pytest.raises(CheckpointError):
            adapter().restore({"stats": {}})

    def test_join_envelope_orders_by_pair_identity(self, make_tuple):
        join = JoinOperator(interval=10.0,
                            predicate="left.station == right.station")
        wrapped = ShardedOperatorAdapter(join, shard_index=1, shard_count=2)
        wrapped.on_tuple(make_tuple(0, station="a", source="l"), port=0)
        wrapped.on_tuple(make_tuple(1, station="a", source="r"), port=1)
        envelope = wrapped.on_timer(10.0)[0]
        entries = envelope.payload[ENTRIES_KEY]
        assert len(entries) == 1
        (order_key, _), = entries
        left_key, right_key = order_key
        assert left_key[1] == "l" and right_key[1] == "r"
        # The pair log is a flush-scoped hook, reset afterwards.
        assert join._pair_log is None


class TestShardMergeOperator:
    def make_envelope(self, shard, epoch, entries, make_tuple, seq=0):
        inner = adapter(index=shard, count=2)
        for i, (station, value) in enumerate(entries):
            inner.on_tuple(make_tuple(i + seq * 10, station=station,
                                      temperature=value))
        envelopes = inner.on_timer(epoch)
        return envelopes[0]

    def test_rejects_unknown_mode(self):
        with pytest.raises(StreamLoaderError, match="mode"):
            ShardMergeOperator(2, "median")

    def test_checkpointable_despite_non_blocking(self, merge):
        assert not merge.is_blocking
        assert merge.checkpointable

    def test_waits_for_every_shard(self, make_tuple, merge):
        first = self.make_envelope(0, 10.0, [("a", 1.0)], make_tuple)
        assert merge.on_tuple(first) == []
        second = self.make_envelope(1, 10.0, [("b", 2.0)], make_tuple)
        out = merge.on_tuple(second)
        assert [t.payload["station"] for t in out] == ["a", "b"]

    def test_epoch_entries_sorted_across_shards(self, make_tuple, merge):
        merge.on_tuple(self.make_envelope(0, 10.0, [("c", 1.0)], make_tuple))
        out = merge.on_tuple(
            self.make_envelope(1, 10.0, [("a", 2.0), ("b", 3.0)], make_tuple))
        assert [t.payload["station"] for t in out] == ["a", "b", "c"]
        # Aggregate mode renumbers like the unsharded flush counter.
        assert [t.seq for t in out] == [1000, 1001, 1002]

    def test_duplicate_epoch_after_restart_is_dropped(self, make_tuple, merge):
        first = self.make_envelope(0, 10.0, [("a", 1.0)], make_tuple)
        second = self.make_envelope(1, 10.0, [("b", 2.0)], make_tuple)
        merge.on_tuple(first)
        assert merge.on_tuple(second) != []
        # A replayed envelope for a closed epoch contributes nothing.
        assert merge.on_tuple(first) == []
        assert 10.0 not in merge._pending

    def test_epochs_close_in_time_order(self, make_tuple, merge):
        merge.on_tuple(self.make_envelope(0, 10.0, [("a", 1.0)], make_tuple))
        merge.on_tuple(self.make_envelope(0, 20.0, [("a", 2.0)], make_tuple, seq=1))
        # Shard 1's empty punctuation for epoch 10 closes exactly epoch 10;
        # epoch 20 stays pending until shard 1 reports having passed it.
        closed = merge.on_tuple(self.make_envelope(1, 10.0, [], make_tuple))
        assert [t.stamp.time for t in closed] == [10.0]
        out = merge.on_tuple(
            self.make_envelope(1, 20.0, [("b", 1.0)], make_tuple, seq=1))
        assert [t.stamp.time for t in out] == [20.0, 20.0]

    def test_checkpoint_round_trip_preserves_pending(self, make_tuple, merge):
        merge.on_tuple(self.make_envelope(0, 10.0, [("a", 1.0)], make_tuple))
        snapshot = merge.checkpoint()
        fresh = ShardMergeOperator(2, "aggregate")
        fresh.restore(snapshot)
        assert fresh.checkpoint() == snapshot
        out = fresh.on_tuple(self.make_envelope(1, 10.0, [("b", 2.0)],
                                                make_tuple))
        assert [t.payload["station"] for t in out] == ["a", "b"]
