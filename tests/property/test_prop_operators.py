"""Property-based tests for the Table 1 operator algebra."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams.aggregate import AggregationOperator
from repro.streams.cull import CullTimeOperator
from repro.streams.filter import FilterOperator
from repro.streams.join import JoinOperator
from repro.streams.transform import TransformOperator
from repro.streams.virtual import VirtualPropertyOperator
from tests.builders import tuples_from

temps = st.floats(min_value=-40.0, max_value=50.0, allow_nan=False)
batches = st.lists(temps, min_size=0, max_size=40)


def through(op, stream):
    return [t for tup in stream for t in op.on_tuple(tup)]


def flushed(stream, function, **params):
    """What one window of an aggregation over ``stream`` emits."""
    op = AggregationOperator(interval=1000.0, attributes=["temperature"],
                             function=function, **params)
    for tup in stream:
        op.on_tuple(tup)
    return op.on_timer(1000.0)


def aggregate(stream, function):
    return flushed(stream, function)[0][f"{function.lower()}_temperature"]


class TestFilterProperties:
    @given(batches)
    def test_partition(self, values):
        """Filter(c) + Filter(not c) exactly partitions the stream."""
        stream = tuples_from(values)
        kept = through(FilterOperator("temperature > 20"), stream)
        dropped = through(FilterOperator("not (temperature > 20)"), stream)
        assert len(kept) + len(dropped) == len(stream)
        assert all(t["temperature"] > 20 for t in kept)
        assert all(t["temperature"] <= 20 for t in dropped)

    @given(batches)
    def test_idempotent(self, values):
        """Filtering an already-filtered stream changes nothing."""
        once = through(FilterOperator("temperature > 20"), tuples_from(values))
        assert through(FilterOperator("temperature > 20"), once) == once

    @given(batches)
    def test_stronger_condition_subset(self, values):
        stream = tuples_from(values)
        weak = {t.seq for t in through(FilterOperator("temperature > 10"), stream)}
        strong = {t.seq for t in through(FilterOperator("temperature > 30"), stream)}
        assert strong <= weak


class TestAggregationProperties:
    @given(batches.filter(lambda v: len(v) > 0))
    def test_matches_numpy(self, values):
        array = np.asarray(values, dtype=float)
        for fn, expected in {"AVG": array.mean(), "SUM": array.sum(),
                             "MIN": array.min(), "MAX": array.max()}.items():
            assert np.isclose(aggregate(tuples_from(values), fn), expected)

    @given(batches)
    def test_count_equals_length(self, values):
        out = flushed(tuples_from(values), "COUNT")
        if not values:
            assert out == []
        else:
            assert out[0]["count_temperature"] == len(values)

    @given(batches.filter(lambda v: len(v) > 0),
           st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_window_permutation_invariant(self, values, rng):
        """A window flush is a function of the window's *set* of tuples:
        arrival order never changes the aggregate."""
        ordered = tuples_from(values)
        shuffled = list(ordered)
        rng.shuffle(shuffled)
        for function in ("COUNT", "MIN", "MAX"):
            assert aggregate(ordered, function) == aggregate(shuffled, function)
        for function in ("SUM", "AVG"):  # float addition: order-tolerant
            assert np.isclose(aggregate(ordered, function),
                              aggregate(shuffled, function))

    @given(batches.filter(lambda v: len(v) > 0),
           st.randoms(use_true_random=False))
    @settings(max_examples=30)
    def test_grouped_window_permutation_invariant(self, values, rng):
        def counts(stream):
            return sorted((t["station"], t["count_temperature"])
                          for t in flushed(stream, "COUNT", group_by="station"))

        ordered = tuples_from(values)
        shuffled = list(ordered)
        rng.shuffle(shuffled)
        assert counts(ordered) == counts(shuffled)

    @given(batches.filter(lambda v: len(v) >= 2))
    def test_min_le_avg_le_max(self, values):
        low, mean, high = (aggregate(tuples_from(values), fn)
                           for fn in ("MIN", "AVG", "MAX"))
        assert low <= mean + 1e-9
        assert mean <= high + 1e-9


class TestCullProperties:
    @given(batches, st.integers(min_value=1, max_value=10))
    def test_keeps_exactly_one_in_r_inside(self, values, rate):
        op = CullTimeOperator(rate=rate, start=0.0, end=1e9)
        assert len(through(op, tuples_from(values))) == len(values) // rate

    @given(batches, st.integers(min_value=1, max_value=10))
    def test_outside_region_untouched(self, values, rate):
        op = CullTimeOperator(rate=rate, start=1e8, end=2e8)
        assert len(through(op, tuples_from(values))) == len(values)


class TestTransformProperties:
    @given(batches)
    def test_unit_conversion_round_trip(self, values):
        to_f = TransformOperator(
            {"temperature": "convert(temperature, 'celsius', 'fahrenheit')"})
        to_c = TransformOperator(
            {"temperature": "convert(temperature, 'fahrenheit', 'celsius')"})
        for tup in tuples_from(values):
            back = to_c.on_tuple(to_f.on_tuple(tup)[0])[0]
            assert np.isclose(back["temperature"], tup["temperature"])

    @given(batches)
    def test_preserves_cardinality(self, values):
        op = TransformOperator({"temperature": "temperature + 1"})
        assert all(len(op.on_tuple(tup)) == 1 for tup in tuples_from(values))


class TestVirtualPropertyProperties:
    @given(batches)
    def test_only_adds_never_mutates(self, values):
        op = VirtualPropertyOperator("flag", "temperature > 0")
        for tup in tuples_from(values):
            out = op.on_tuple(tup)[0]
            assert set(out.payload) == set(tup.payload) | {"flag"}
            for key in tup.payload:
                assert out[key] == tup[key]


def joined(predicate, events):
    op = JoinOperator(interval=1000.0, predicate=predicate)
    for port, tup in events:
        op.on_tuple(tup, port=port)
    return op.on_timer(1000.0)


def sides(left, right):
    return ([(0, tup) for tup in tuples_from(left)]
            + [(1, tup) for tup in tuples_from(right)])


class TestJoinProperties:
    @given(batches, batches)
    @settings(max_examples=30)
    def test_join_size_bounded_by_product(self, left, right):
        events = [(port, tup.with_updates(seqmod=tup.seq % 2))
                  for port, tup in sides(left, right)]
        out = joined("left.seqmod == right.seqmod", events)
        assert len(out) <= len(left) * len(right)

    @given(batches, batches)
    @settings(max_examples=30)
    def test_true_predicate_is_cross_product(self, left, right):
        assert len(joined("true", sides(left, right))) == len(left) * len(right)

    @given(batches, batches, st.randoms(use_true_random=False))
    @settings(max_examples=30)
    def test_join_commutes_with_interleaving(self, left, right, rng):
        """The flush output is independent of arrival interleaving."""
        def run(events):
            return sorted(tuple(sorted(t.values().items()))
                          for t in joined("left.station == right.station", events))

        ordered = sides(left, right)
        shuffled = list(ordered)
        rng.shuffle(shuffled)
        assert run(ordered) == run(shuffled)
