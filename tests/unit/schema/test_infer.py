"""Unit tests for schema-inference primitives."""

import pytest

from repro.errors import SchemaError
from repro.schema.infer import (
    aggregate_schema, join_schema, rename_schema, with_virtual_property,
)
from repro.schema.schema import StreamSchema
from repro.schema.types import AttributeType


class TestProjectRename:

    def test_rename_collision_raises(self, weather_schema):
        with pytest.raises(SchemaError, match="collides"):
            rename_schema(weather_schema, {"temperature": "humidity"})

    def test_rename_unknown_source_raises(self, weather_schema):
        with pytest.raises(SchemaError):
            rename_schema(weather_schema, {"missing": "x"})

    def test_swap_via_two_renames_is_legal(self, weather_schema):
        result = rename_schema(
            weather_schema, {"temperature": "humidity2", "humidity": "temperature2"}
        )
        assert "humidity2" in result and "temperature2" in result


class TestVirtualProperty:
    def test_adds_typed_attribute(self, weather_schema):
        result = with_virtual_property(weather_schema, "apparent", "float")
        assert result.type_of("apparent") is AttributeType.FLOAT
        assert len(result) == len(weather_schema) + 1

    def test_collision_raises(self, weather_schema):
        with pytest.raises(SchemaError, match="collides"):
            with_virtual_property(weather_schema, "temperature", "float")


class TestAggregateSchema:
    def test_avg_output(self, weather_schema):
        result = aggregate_schema(weather_schema, ["temperature"], "AVG", 3600.0)
        assert result.names == ("avg_temperature",)
        assert result.type_of("avg_temperature") is AttributeType.FLOAT
        assert result.attribute("avg_temperature").unit == "celsius"

    def test_count_works_on_non_numeric(self, weather_schema):
        result = aggregate_schema(weather_schema, ["station"], "COUNT", 60.0)
        assert result.names == ("count_station",)
        assert result.type_of("count_station") is AttributeType.INT

    def test_sum_non_numeric_raises(self, weather_schema):
        with pytest.raises(SchemaError, match="non-numeric"):
            aggregate_schema(weather_schema, ["station"], "SUM", 60.0)

    def test_unknown_function_raises(self, weather_schema):
        with pytest.raises(SchemaError, match="unknown aggregation"):
            aggregate_schema(weather_schema, ["temperature"], "MEDIAN", 60.0)

    def test_zero_interval_raises(self, weather_schema):
        with pytest.raises(SchemaError, match="positive"):
            aggregate_schema(weather_schema, ["temperature"], "AVG", 0.0)

    def test_no_attributes_raises(self, weather_schema):
        with pytest.raises(SchemaError, match="at least one"):
            aggregate_schema(weather_schema, [], "AVG", 60.0)

    def test_granularity_coarsened_to_cover_interval(self, weather_schema):
        hourly = aggregate_schema(weather_schema, ["temperature"], "AVG", 3600.0)
        assert hourly.temporal_granularity.name == "hour"
        minutely = aggregate_schema(weather_schema, ["temperature"], "AVG", 30.0)
        assert minutely.temporal_granularity.name == "minute"

    def test_multiple_attributes(self, weather_schema):
        result = aggregate_schema(weather_schema, ["temperature", "humidity"],
                                  "MAX", 60.0)
        assert result.names == ("max_temperature", "max_humidity")


class TestJoinSchema:
    def test_no_collision_keeps_names(self):
        left = StreamSchema.build({"a": "int"})
        right = StreamSchema.build({"b": "string"})
        result = join_schema(left, right)
        assert result.names == ("a", "b")

    def test_collisions_prefixed(self, weather_schema):
        result = join_schema(weather_schema, weather_schema)
        assert "l_temperature" in result and "r_temperature" in result

    def test_same_prefixes_raise(self, weather_schema):
        with pytest.raises(SchemaError, match="differ"):
            join_schema(weather_schema, weather_schema, "x", "x")

    def test_granularities_coarsest_common(self):
        left = StreamSchema.build({"a": "int"}, temporal="second", spatial="point")
        right = StreamSchema.build({"b": "int"}, temporal="hour", spatial="city")
        result = join_schema(left, right)
        assert result.temporal_granularity.name == "hour"
        assert result.spatial_granularity.name == "city"

    def test_themes_unioned(self):
        left = StreamSchema.build({"a": "int"}, themes=("weather/rain",))
        right = StreamSchema.build({"b": "int"}, themes=("mobility/traffic",))
        result = join_schema(left, right)
        assert len(result.themes) == 2

    def test_prefix_creating_collision_raises(self):
        left = StreamSchema.build({"a": "int", "l_a": "int"})
        right = StreamSchema.build({"a": "int"})
        with pytest.raises(SchemaError):
            join_schema(left, right, "l", "r")
