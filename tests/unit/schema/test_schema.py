"""Unit tests for stream schemas."""

import pytest

from repro.errors import SchemaError, TypeMismatchError
from repro.schema.schema import Attribute, StreamSchema
from repro.schema.types import AttributeType


class TestAttribute:
    def test_valid(self):
        attr = Attribute("temperature", "float", unit="celsius")
        assert attr.type is AttributeType.FLOAT

    @pytest.mark.parametrize("bad", ["", "1x", "a-b", "a b", "a.b"])
    def test_invalid_names(self, bad):
        with pytest.raises(SchemaError):
            Attribute(bad, "float")

    def test_unit_on_non_numeric_raises(self):
        with pytest.raises(SchemaError, match="numeric"):
            Attribute("name", "string", unit="meter")

    def test_renamed(self):
        attr = Attribute("a", "int").renamed("b")
        assert attr.name == "b" and attr.type is AttributeType.INT


class TestBuild:
    def test_from_dict(self):
        schema = StreamSchema.build({"a": "int", "b": "string"})
        assert schema.names == ("a", "b")

    def test_from_tuples_with_units(self):
        schema = StreamSchema.build([("t", "float", "celsius"), ("s", "string")])
        assert schema.attribute("t").unit == "celsius"

    def test_duplicate_names_raise(self):
        with pytest.raises(SchemaError, match="duplicate"):
            StreamSchema.build([("a", "int"), ("a", "float")])

    def test_metadata(self):
        schema = StreamSchema.build({"a": "int"}, temporal="hour",
                                    spatial="city", themes=("weather",))
        assert schema.temporal_granularity.name == "hour"
        assert schema.spatial_granularity.name == "city"
        assert schema.themes[0].path == "weather"


class TestLookups:
    def test_contains_and_type_of(self, weather_schema):
        assert "temperature" in weather_schema
        assert "missing" not in weather_schema
        assert weather_schema.type_of("humidity") is AttributeType.FLOAT

    def test_attribute_missing_raises(self, weather_schema):
        with pytest.raises(SchemaError, match="no attribute"):
            weather_schema.attribute("missing")

    def test_len(self, weather_schema):
        assert len(weather_schema) == 3


class TestPayloadValidation:
    def test_valid_payload(self, weather_schema):
        weather_schema.validate_payload(
            {"temperature": 25.0, "humidity": 0.5, "station": "x"})

    def test_int_accepted_for_float(self, weather_schema):
        weather_schema.validate_payload(
            {"temperature": 25, "humidity": 0.5, "station": "x"})

    def test_missing_attribute_raises(self, weather_schema):
        with pytest.raises(TypeMismatchError, match="missing"):
            weather_schema.validate_payload({"temperature": 25.0, "humidity": 0.5})

    def test_wrong_type_raises(self, weather_schema):
        with pytest.raises(TypeMismatchError, match="does not fit"):
            weather_schema.validate_payload(
                {"temperature": "hot", "humidity": 0.5, "station": "x"})

    def test_extra_attribute_raises(self, weather_schema):
        with pytest.raises(TypeMismatchError, match="not in the schema"):
            weather_schema.validate_payload(
                {"temperature": 25.0, "humidity": 0.5, "station": "x", "extra": 1}
            )

    def test_nullable_attribute(self):
        schema = StreamSchema((Attribute("a", "int", nullable=True),))
        schema.validate_payload({"a": None})
        schema.validate_payload({})

    def test_null_in_non_nullable_raises(self, weather_schema):
        with pytest.raises(TypeMismatchError, match="null"):
            weather_schema.validate_payload(
                {"temperature": None, "humidity": 0.5, "station": "x"})

    def test_accepts_payload_boolean_form(self, weather_schema):
        assert weather_schema.accepts_payload(
            {"temperature": 1.0, "humidity": 0.5, "station": "x"})
        assert not weather_schema.accepts_payload({})


class TestDerivation:
    def test_with_attribute(self, weather_schema):
        extended = weather_schema.with_attribute(Attribute("extra", "int"))
        assert "extra" in extended
        assert "extra" not in weather_schema  # original untouched

    def test_with_duplicate_raises(self, weather_schema):
        with pytest.raises(SchemaError):
            weather_schema.with_attribute(Attribute("temperature", "int"))

    def test_without_attribute(self, weather_schema):
        reduced = weather_schema.without_attribute("station")
        assert reduced.names == ("temperature", "humidity")

    def test_project_keeps_order_given(self, weather_schema):
        projected = weather_schema.project(["station", "temperature"])
        assert projected.names == ("station", "temperature")

    def test_renamed(self, weather_schema):
        renamed = weather_schema.renamed({"temperature": "temp"})
        assert "temp" in renamed and "temperature" not in renamed

    def test_prefixed(self, weather_schema):
        prefixed = weather_schema.prefixed("l")
        assert prefixed.names == ("l_temperature", "l_humidity", "l_station")

    def test_coarsened(self, weather_schema):
        coarse = weather_schema.coarsened(temporal="hour", spatial="city")
        assert coarse.temporal_granularity.name == "hour"
        assert weather_schema.temporal_granularity.name == "second"

    def test_compatible_with(self, weather_schema):
        assert weather_schema.compatible_with(weather_schema)
        other = weather_schema.renamed({"station": "site"})
        assert not weather_schema.compatible_with(other)

    def test_describe_mentions_units_and_themes(self, weather_schema):
        text = weather_schema.describe()
        assert "celsius" in text and "weather/temperature" in text
