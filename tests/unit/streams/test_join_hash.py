"""Hash-join flush vs the nested-loop reference (:mod:`repro.streams.join`).

Hand-picked windows for the flush oracle's join check: the hash path
equals the nested loop where it engages, and falls back to it where its
assumptions fail (missing or non-scalar keys, non-equi predicates).
"""

import math

import pytest

from repro.streams.join import JoinOperator
from repro.streams.tuple import SensorTuple
from repro.stt.event import SttStamp
from repro.stt.spatial import Point
from tests.oracle.test_flush_oracle import check_join_flush


def make_tuple(i, **payload):
    return SensorTuple(
        payload=payload,
        stamp=SttStamp(time=float(i), location=Point(34.5, 135.3)),
        source=f"s{i}",
        seq=i,
    )


def run_flush(predicate, left, right):
    op = JoinOperator(interval=60.0, predicate=predicate)
    for t in left:
        op.on_tuple(t, port=0)
    for t in right:
        op.on_tuple(t, port=1)
    return op.on_timer(60.0), op


def assert_same_output(predicate, left, right):
    """Hash and nested-loop flushes agree on tuples, order, and errors."""
    out, kernel, reference = check_join_flush(predicate, left, right)
    assert kernel.stats.errors == reference.stats.errors
    return out


class TestEquiKeyExtraction:
    def extract(self, predicate):
        return JoinOperator(interval=60.0, predicate=predicate).equi_keys

    def test_simple_equality(self):
        assert self.extract(
            "left.station == right.station") == [("station", "station")]

    def test_reversed_orientation_normalized(self):
        assert self.extract("right.b == left.a") == [("a", "b")]

    def test_and_chain_collects_all(self):
        keys = self.extract(
            "left.a == right.a and left.v < right.v and left.b == right.b")
        assert keys == [("a", "a"), ("b", "b")]

    def test_non_equi_predicates_have_no_keys(self):
        assert self.extract("left.v < right.v") == []
        assert self.extract("left.a == right.a or left.b == right.b") == []
        assert self.extract("left.a == 'fixed'") == []
        assert self.extract("left.a != right.a") == []

    def test_no_keys_means_nested_loop(self):
        op = JoinOperator(interval=60.0, predicate="left.v < right.v")
        assert op.equi_keys == []


class TestFlushParity:
    def test_single_key_parity(self):
        left = [make_tuple(i, station=f"st-{i % 5}", v=float(i)) for i in range(30)]
        right = [make_tuple(i, station=f"st-{i % 7}", w=float(i)) for i in range(30)]
        out = assert_same_output("left.station == right.station", left, right)
        assert out  # non-degenerate: something actually joined

    def test_composite_key_with_residual_predicate(self):
        left = [make_tuple(i, a=i % 3, b=i % 2, v=float(i)) for i in range(20)]
        right = [make_tuple(i, a=i % 3, b=i % 2, w=float(i)) for i in range(20)]
        assert_same_output(
            "left.a == right.a and left.b == right.b and left.v < right.w",
            left, right,
        )

    def test_mixed_scalar_key_types(self):
        # 1 == 1.0 == True under the evaluator; the hash must agree.
        values = [1, 1.0, True, 0, False, None, "x"]
        left = [make_tuple(i, k=v) for i, v in enumerate(values)]
        right = [make_tuple(i, k=v) for i, v in enumerate(reversed(values))]
        out = assert_same_output("left.k == right.k", left, right)
        assert out

    def test_nan_keys_never_match(self):
        left = [make_tuple(0, k=math.nan), make_tuple(1, k=1.0)]
        right = [make_tuple(0, k=math.nan), make_tuple(1, k=1.0)]
        out = assert_same_output("left.k == right.k", left, right)
        assert len(out) == 1  # only the 1.0 pair

    def test_empty_sides_emit_nothing(self):
        left = [make_tuple(0, k=1)]
        assert run_flush("left.k == right.k", left, [])[0] == []
        assert run_flush("left.k == right.k", [], left)[0] == []


class TestFallback:
    def test_missing_key_attribute_falls_back(self):
        # The evaluator raises per pair on a missing attribute; the hash
        # path cannot reproduce that, so the whole flush falls back and
        # the error counts match the nested loop exactly.
        left = [make_tuple(0, k=1), make_tuple(1, other=2)]
        right = [make_tuple(0, k=1)]
        hashed, op = run_flush("left.k == right.k", left, right)
        assert op.stats.errors == 1  # the pair missing `k`
        assert len(hashed) == 1
        assert_same_output("left.k == right.k", left, right)

    def test_non_scalar_key_value_falls_back(self):
        left = [make_tuple(0, k=(1, 2)), make_tuple(1, k=1)]
        right = [make_tuple(0, k=1)]
        assert_same_output("left.k == right.k", left, right)

    def test_constructor_rejects_hash_join(self):
        # The fast path has no off switch; the reference is called directly.
        with pytest.raises(TypeError):
            JoinOperator(
                interval=60.0, predicate="left.k == right.k", hash_join=False)
        left = [make_tuple(i, k=i % 2) for i in range(4)]
        right = [make_tuple(i, k=i % 2) for i in range(4)]
        op = JoinOperator(interval=60.0, predicate="left.k == right.k")
        assert len(op._nested_loop_flush(left, right, 60.0)) == 8
