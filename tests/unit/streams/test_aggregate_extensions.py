"""Unit tests for grouped and sliding aggregation.

What the windows emit is a table in the Table 1 spec
(``tests/oracle/test_table1_spec.py``); the ``case`` lines run its rows.
"""

import pytest

from repro.dataflow.ops import AggregationSpec, spec_from_dict
from repro.errors import DataflowError, SchemaError
from repro.streams.aggregate import AggregationOperator
from tests.oracle.test_table1_spec import case


class TestGroupBy:
    test_one_output_per_group = case("aggregation")
    test_groups_sorted_deterministically = case("aggregation")
    test_group_key_in_payload = case("aggregation")
    test_missing_group_key_becomes_none_group = case("aggregation")

    def test_group_by_aggregated_attribute_raises(self):
        with pytest.raises(DataflowError, match="cannot also be aggregated"):
            AggregationOperator(interval=60.0, attributes=["temperature"],
                                function="AVG", group_by="temperature")


class TestSlidingWindow:
    test_sliding_retains_across_flushes = case("aggregation")
    test_sliding_evicts_beyond_lookback = case("aggregation")
    test_tumbling_is_default = case("aggregation")

    def test_window_shorter_than_interval_raises(self):
        with pytest.raises(DataflowError, match="cover at least one"):
            AggregationOperator(interval=600.0, attributes=["x"],
                                function="AVG", window=60.0)


class TestSpecIntegration:
    def test_spec_round_trip_with_new_fields(self):
        spec = AggregationSpec(interval=300.0, attributes=("temperature",),
                               function="AVG", group_by="station",
                               window=3600.0)
        assert spec_from_dict(spec.to_dict()) == spec

    def test_schema_includes_group_key(self, weather_schema):
        spec = AggregationSpec(interval=300.0, attributes=("temperature",),
                               function="AVG", group_by="station")
        schema = spec.infer_schema([weather_schema])
        assert schema.names == ("station", "avg_temperature")

    def test_schema_rejects_bad_group_key(self, weather_schema):
        spec = AggregationSpec(interval=300.0, attributes=("temperature",),
                               function="AVG", group_by="ghost")
        with pytest.raises(SchemaError):
            spec.infer_schema([weather_schema])

    def test_spec_window_validation(self, weather_schema):
        spec = AggregationSpec(interval=600.0, attributes=("temperature",),
                               function="AVG", window=60.0)
        with pytest.raises(DataflowError):
            spec.infer_schema([weather_schema])
