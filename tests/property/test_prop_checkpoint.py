"""Property-based tests for blocking-operator checkpoint/restore.

The recovery contract, stated as properties over arbitrary tuple batches:

- **round trip** — restoring a snapshot into any (dirtied) operator makes
  its next flush identical to an operator that only ever saw the
  snapshot-time tuples;
- **loss bound** — tuples absorbed after the snapshot never appear in the
  restored operator's output (at-most-once, nothing resurrects twice).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams.aggregate import AggregationOperator
from repro.streams.join import JoinOperator
from repro.streams.trigger import TriggerOnOperator
from tests.builders import tuples_from

temps = st.floats(min_value=-40.0, max_value=50.0, allow_nan=False)
batches = st.lists(temps, min_size=0, max_size=30)


def make_aggregate():
    return AggregationOperator(interval=1000.0, attributes=["temperature"],
                               function="SUM")


def fed(op, values, start_seq=0, port=0):
    for tup in tuples_from(values, start_seq):
        op.on_tuple(tup, port=port)
    return op


class TestAggregateCheckpoint:
    @given(batches, batches)
    @settings(max_examples=60)
    def test_restore_round_trips(self, before, after):
        op = fed(make_aggregate(), before)
        state = op.checkpoint()
        fed(op, after, len(before))  # post-snapshot damage
        op.restore(state)
        reference = fed(make_aggregate(), before)

        restored_out = op.on_timer(1000.0)
        reference_out = reference.on_timer(1000.0)
        assert len(restored_out) == len(reference_out)
        if restored_out:
            assert np.isclose(restored_out[0]["sum_temperature"],
                              reference_out[0]["sum_temperature"])

    @given(batches, batches.filter(lambda v: len(v) > 0))
    @settings(max_examples=60)
    def test_post_snapshot_tuples_are_lost(self, before, after):
        op = fed(make_aggregate(), before)
        state = op.checkpoint()
        fed(op, after, len(before))
        op.restore(state)
        assert len(op.cache) == len(before)

    @given(batches)
    @settings(max_examples=60)
    def test_checkpoint_is_non_destructive(self, values):
        op = fed(make_aggregate(), values)
        op.checkpoint()
        assert len(op.cache) == len(values)  # snapshotting reads, never drains

    @given(batches)
    @settings(max_examples=60)
    def test_restore_is_idempotent(self, values):
        op = fed(make_aggregate(), values)
        state = op.checkpoint()
        op.restore(state)
        op.restore(state)
        assert len(op.cache) == len(values)


class TestJoinCheckpoint:
    @given(batches, batches, batches)
    @settings(max_examples=30)
    def test_restore_round_trips_both_sides(self, left, right, noise):
        def feed(op, left_vals, right_vals):
            return fed(fed(op, left_vals), right_vals, port=1)

        op = feed(JoinOperator(interval=1000.0, predicate="true"), left, right)
        state = op.checkpoint()
        feed(op, noise, noise)
        op.restore(state)
        reference = feed(JoinOperator(interval=1000.0, predicate="true"),
                         left, right)
        assert len(op.on_timer(1000.0)) == len(reference.on_timer(1000.0))


class TestTriggerCheckpoint:
    @given(batches.filter(lambda v: len(v) > 0), batches)
    @settings(max_examples=30)
    def test_restored_trigger_decides_like_the_original(self, before, after):
        def make():
            return TriggerOnOperator(interval=300.0, window=1e6,
                                     condition="avg_temperature > 10",
                                     targets=["t-1"])

        op = fed(make(), before)
        state = op.checkpoint()
        fed(op, after, len(before))
        restored = make()
        restored.restore(state)
        reference = fed(make(), before)

        commands_restored, commands_reference = [], []
        restored.control = commands_restored.append
        reference.control = commands_reference.append
        restored.on_timer(1000.0)
        reference.on_timer(1000.0)
        assert [c.activate for c in commands_restored] == [
            c.activate for c in commands_reference]
