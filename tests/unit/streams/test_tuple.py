"""Unit tests for sensor tuples."""

import numpy as np
import pytest

from repro.streams.tuple import (
    SensorTuple, TupleBatch, assemble, estimate_batch_size_bytes,
    message_size_bytes,
)
from repro.stt.event import SttStamp
from repro.stt.spatial import Point


class TestImmutability:
    def test_payload_is_read_only(self, make_tuple):
        tuple_ = make_tuple(0)
        with pytest.raises(TypeError):
            tuple_.payload["temperature"] = 99.0

    def test_values_copy_is_detached(self, make_tuple):
        tuple_ = make_tuple(0)
        values = tuple_.values()
        values["temperature"] = -1.0
        assert tuple_["temperature"] != -1.0


class TestAccess:
    def test_getitem_get_contains(self, make_tuple):
        tuple_ = make_tuple(0, temperature=21.5)
        assert tuple_["temperature"] == 21.5
        assert tuple_.get("missing", "default") == "default"
        assert "humidity" in tuple_
        assert "missing" not in tuple_

    def test_time_shortcut(self, make_tuple):
        assert make_tuple(0, time=42.0).time == 42.0

    def test_with_stamp_and_relabelled(self, make_tuple):
        tuple_ = make_tuple(0)
        new_stamp = SttStamp(time=99.0, location=Point(0, 0))
        restamped = tuple_.with_stamp(new_stamp)
        assert restamped.time == 99.0
        assert tuple_.time == 0.0


class TestSizeEstimate:
    def test_monotone_in_payload(self, make_tuple):
        small = make_tuple(0, station="a")
        large = make_tuple(0, station="a" * 100)
        assert message_size_bytes(large) > message_size_bytes(small)

    def test_deterministic(self, make_tuple):
        tuple_ = make_tuple(0)
        assert message_size_bytes(tuple_) == message_size_bytes(tuple_)

    def test_envelope_minimum(self):
        empty = SensorTuple(payload={}, stamp=SttStamp(0.0, Point(0, 0)))
        assert message_size_bytes(empty) >= 48

    def test_size_by_value_type_including_subclasses(self):
        import numpy as np

        class Label(str):
            pass

        class Count(int):
            pass

        sizes = [  # (value, bytes beyond the 1-byte name)
            (True, 1), (7, 8), (2.5, 8), ("héllo", 6), (None, 16), ((1, 2), 16),
            (np.float64(2.5), 8), (np.int64(7), 16), (Label("abc"), 3),
            (Count(7), 8),
        ]
        for value, expected in sizes:
            tuple_ = SensorTuple(payload={"v": value},
                                 stamp=SttStamp(0.0, Point(0, 0)))
            assert message_size_bytes(tuple_) == 48 + 1 + expected, value


class TestAssemble:
    def test_equals_constructor_and_owns_the_dict(self, make_tuple):
        stamp = make_tuple(0).stamp
        payload = {"temperature": 21.0, "station": "umeda"}
        built = SensorTuple(payload=payload, stamp=stamp, source="s", seq=4)
        owned = assemble(
            payload, stamp.time, stamp.location, stamp.temporal_granularity,
            stamp.spatial_granularity, stamp.themes, "s", 4)
        assert owned == built and owned.trace is None
        assert owned.stamp == stamp and owned.stamp.themes is stamp.themes
        with pytest.raises(TypeError):
            owned.payload["temperature"] = 0.0
        assert message_size_bytes(owned) == message_size_bytes(built)


class TestBatchSizeMemo:
    def test_batch_size_is_memoized_on_the_envelope(self, make_tuple):
        batch = TupleBatch.of([make_tuple(i) for i in range(3)])
        size = estimate_batch_size_bytes(batch)
        # The second call must answer from the envelope memo, not resum.
        object.__setattr__(batch, "_wire", size + 1000)
        assert estimate_batch_size_bytes(batch) == size + 1000

    def test_with_traced_inherits_the_memo(self, make_tuple):
        batch = TupleBatch.of([make_tuple(i) for i in range(3)])
        size = estimate_batch_size_bytes(batch)
        traced = batch.with_traced(list(batch))
        assert traced._wire == size

    def test_with_tuples_does_not_inherit_the_memo(self, make_tuple):
        batch = TupleBatch.of([make_tuple(i) for i in range(3)])
        estimate_batch_size_bytes(batch)
        subset = batch.with_tuples(list(batch)[:1])  # rows changed: resize
        assert subset._wire is None

    def test_memo_survives_with_owned_payload_clones(self, make_tuple):
        # A transform-style rewrite clones every tuple through
        # ``with_owned_payload``.  The original envelope must keep
        # answering from its memo, and the clones must *not* drag stale
        # per-tuple memos along — their payloads changed size.
        batch = TupleBatch.of([make_tuple(i) for i in range(3)])
        size = estimate_batch_size_bytes(batch)
        clones = [
            t.with_owned_payload(dict(t.payload, padding="x" * 64))
            for t in batch
        ]
        grown = TupleBatch.of(clones)
        assert estimate_batch_size_bytes(batch) == size
        assert estimate_batch_size_bytes(grown) > size

    def test_payload_preserving_clones_resize_and_leave_no_tuple_memo(
        self, make_tuple
    ):
        # The size is a pure function of the payload: nothing is
        # remembered on the tuple (a memo there would materialise the
        # instance dict of every fresh tuple), so clones just size equal.
        tuple_ = make_tuple(0)
        size = message_size_bytes(tuple_)
        assert not hasattr(tuple_, "__dict__")
        for clone in (
            tuple_.with_trace(None),
            tuple_.with_stamp(tuple_.stamp),
        ):
            assert message_size_bytes(clone) == size
            assert not hasattr(clone, "__dict__")


class _Text(str):
    """A str subclass: sized through the isinstance ladder."""


class TestWireSizes:
    """Literal sizes, computed before the per-tuple memo was deleted."""

    @pytest.mark.parametrize("payload, size", [
        ({}, 48),
        ({"v": 1.5}, 57),
        ({"v": 7}, 57),
        ({"v": True}, 50),
        ({"v": None}, 65),
        ({"text": "heavy rain"}, 62),
        ({"text": "雨"}, 55),
        ({"text": "大阪 rain"}, 63),
        ({"v": _Text("abc")}, 52),
        ({"v": _Text("雨雨")}, 55),
        ({"v": np.float64(1.25)}, 57),
        ({"v": np.int64(3)}, 65),
        ({"v": [1, [2, 3]]}, 65),
        ({"reading": 2.5, "station": "umeda", "ok": True, "n": 3,
          "note": None}, 107),
    ], ids=[
        "empty", "float", "int", "bool", "none", "ascii", "non-ascii",
        "mixed-text", "str-subclass", "non-ascii-str-subclass",
        "np.float64", "np.int64", "nested-list", "all",
    ])
    def test_literal_sizes(self, payload, size):
        stamp = SttStamp(time=0.0, location=Point(0.0, 0.0))
        tuple_ = SensorTuple(payload=payload, stamp=stamp)
        assert message_size_bytes(tuple_) == size
        assert message_size_bytes(tuple_) == size
        assert message_size_bytes(
            TupleBatch.of([tuple_, tuple_])) == (24 + 2 * size)

    def test_a_batch_is_its_envelope_plus_its_members(self, mixed_stream):
        for width in (1, 7, 32, len(mixed_stream)):
            for first in range(0, len(mixed_stream), width):
                members = mixed_stream[first:first + width]
                assert message_size_bytes(TupleBatch.of(members)) == (
                    24 + sum(message_size_bytes(t) for t in members))
                assert estimate_batch_size_bytes(members) == (
                    24 + sum(message_size_bytes(t) for t in members))


class TestStampSpanMemo:
    def test_span_is_stamp_extremes(self, make_tuple):
        batch = TupleBatch.of(
            [make_tuple(i, time=float(t)) for i, t in enumerate([5, 1, 9])])
        assert batch.stamp_span() == (1.0, 9.0)

    def test_span_is_memoized_on_the_envelope(self, make_tuple):
        batch = TupleBatch.of([make_tuple(i, time=float(i)) for i in range(3)])
        batch.stamp_span()
        object.__setattr__(batch, "_span", (-1.0, -1.0))
        assert batch.stamp_span() == (-1.0, -1.0)

    def test_with_traced_inherits_the_span(self, make_tuple):
        batch = TupleBatch.of([make_tuple(i, time=float(i)) for i in range(3)])
        span = batch.stamp_span()
        assert batch.with_traced(list(batch))._span == span

    def test_with_tuples_does_not_inherit_the_span(self, make_tuple):
        batch = TupleBatch.of([make_tuple(i, time=float(i)) for i in range(3)])
        batch.stamp_span()
        assert batch.with_tuples(list(batch)[:1])._span is None
