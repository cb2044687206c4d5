"""Unit tests for the Aggregation operator — @t,{a..} op (s).

What each window emits is a table in the Table 1 spec
(``tests/oracle/test_table1_spec.py``); the ``case`` lines run its rows.
"""

import pytest

from repro.errors import DataflowError, StreamLoaderError
from repro.streams.aggregate import AggregationOperator
from tests.oracle.test_table1_spec import case


class TestWindowing:
    test_blocking_buffers_until_timer = case("aggregation")
    test_empty_window_emits_nothing = case("aggregation")
    test_window_tumbles = case("aggregation")


class TestFunctions:
    @pytest.mark.parametrize("fn,expected", [
        ("AVG", 22.0), ("SUM", 110.0), ("MIN", 20.0), ("MAX", 24.0),
    ])
    def test_numeric_functions(self, make_tuple, fn, expected):
        op = AggregationOperator(interval=60.0, attributes=["temperature"],
                                 function=fn)
        for i in range(5):
            op.on_tuple(make_tuple(i, temperature=20.0 + i))
        out = op.on_timer(60.0)
        assert out[0][f"{fn.lower()}_temperature"] == expected

    test_count = case("aggregation")
    test_case_insensitive_function = case("aggregation")
    test_multiple_attributes = case("aggregation")
    test_none_values_skipped = case("aggregation")

    def test_unknown_function_raises(self):
        with pytest.raises(DataflowError):
            AggregationOperator(interval=60.0, attributes=["x"], function="MEDIAN")

    def test_no_attributes_raises(self):
        with pytest.raises(DataflowError):
            AggregationOperator(interval=60.0, attributes=[], function="AVG")

    def test_zero_interval_raises(self):
        with pytest.raises(StreamLoaderError):
            AggregationOperator(interval=0.0, attributes=["x"], function="AVG")


class TestOutputStamp:
    test_stamped_at_flush_time_and_coarsened = case("aggregation")
    test_location_is_bounding_box_of_window = case("aggregation")
    test_single_point_stays_point = case("aggregation")
    test_themes_propagated = case("aggregation")
    test_source_labels_derivation = case("aggregation")


class TestReset:
    def test_reset_clears_cache(self, make_tuple):
        op = AggregationOperator(interval=60.0, attributes=["temperature"],
                                 function="AVG")
        op.on_tuple(make_tuple(0))
        op.reset()
        assert op.on_timer(60.0) == []
