"""Unit tests for operator specifications."""

import pytest

from repro.errors import DataflowError, SchemaError, TypeMismatchError
from repro.dataflow.ops import (
    AggregationSpec, CullSpaceSpec, CullTimeSpec, FilterSpec, JoinSpec,
    TransformSpec, TriggerOffSpec, TriggerOnSpec, ValidateSpec,
    VirtualPropertySpec, spec_from_dict, statistics_schema,
)
from repro.schema.types import AttributeType

ALL_SPECS = [
    FilterSpec("temperature > 24"),
    TransformSpec(assignments={"temperature": "temperature + 1"}),
    ValidateSpec(rules=("humidity <= 1",)),
    VirtualPropertySpec("double", "temperature * 2"),
    CullTimeSpec(rate=5, start=0.0, end=100.0),
    CullSpaceSpec(rate=5, corner1=(34.5, 135.3), corner2=(34.9, 135.7)),
    AggregationSpec(interval=60.0, attributes=("temperature",), function="AVG"),
    JoinSpec(interval=60.0, predicate="left.station == right.station"),
    TriggerOnSpec(interval=60.0, condition="avg_temperature > 25",
                  targets=("rain-1",)),
    TriggerOffSpec(interval=60.0, condition="count == 0", targets=("rain-1",)),
]


class TestStatisticsSchema:
    def test_numeric_attrs_get_aggregates(self, weather_schema):
        stats = statistics_schema(weather_schema)
        assert stats.type_of("count") is AttributeType.INT
        for prefix in ("avg", "min", "max", "sum"):
            assert f"{prefix}_temperature" in stats
        assert "last_station" in stats
        assert "avg_station" not in stats

    def test_units_carried(self, weather_schema):
        stats = statistics_schema(weather_schema)
        assert stats.attribute("avg_temperature").unit == "celsius"


class TestInference:
    def test_filter_passes_schema_through(self, weather_schema):
        assert FilterSpec("temperature > 0").infer_schema([weather_schema]) \
            == weather_schema

    def test_filter_bad_condition_raises(self, weather_schema):
        with pytest.raises(TypeMismatchError):
            FilterSpec("temperature + 1").infer_schema([weather_schema])

    def test_transform_changes_type(self, weather_schema):
        spec = TransformSpec(assignments={"station": "length(station)"})
        result = spec.infer_schema([weather_schema])
        assert result.type_of("station") is AttributeType.INT

    def test_transform_adds_attribute(self, weather_schema):
        spec = TransformSpec(assignments={"f": "temperature * 1.8 + 32"})
        result = spec.infer_schema([weather_schema])
        assert result.type_of("f") is AttributeType.FLOAT

    def test_transform_empty_raises(self):
        with pytest.raises(DataflowError):
            TransformSpec()

    def test_virtual_property_type_inferred(self, weather_schema):
        spec = VirtualPropertySpec("hot", "temperature > 30")
        result = spec.infer_schema([weather_schema])
        assert result.type_of("hot") is AttributeType.BOOL

    def test_virtual_property_collision_raises(self, weather_schema):
        spec = VirtualPropertySpec("temperature", "humidity")
        with pytest.raises(SchemaError):
            spec.infer_schema([weather_schema])

    def test_cull_time_validates_interval(self, weather_schema):
        with pytest.raises(DataflowError):
            CullTimeSpec(
                rate=2, start=10.0, end=0.0).infer_schema([weather_schema])

    def test_aggregation_output(self, weather_schema):
        spec = AggregationSpec(interval=3600.0, attributes=("temperature",),
                               function="AVG")
        result = spec.infer_schema([weather_schema])
        assert result.names == ("avg_temperature",)

    def test_aggregation_bad_function_rejected_at_construction(self):
        with pytest.raises(DataflowError):
            AggregationSpec(interval=60.0, attributes=("x",), function="MODE")

    def test_join_two_schemas(self, weather_schema):
        spec = JoinSpec(interval=60.0,
                        predicate="left.station == right.station")
        result = spec.infer_schema([weather_schema, weather_schema])
        assert "left_temperature" in result

    def test_join_wrong_arity_raises(self, weather_schema):
        spec = JoinSpec(interval=60.0, predicate="true")
        with pytest.raises(DataflowError, match="2 input"):
            spec.infer_schema([weather_schema])

    def test_trigger_condition_against_statistics(self, weather_schema):
        spec = TriggerOnSpec(interval=60.0, condition="avg_temperature > 25",
                             targets=("x",))
        assert spec.infer_schema([weather_schema]) is None

    def test_trigger_raw_attribute_condition_rejected(self, weather_schema):
        # Conditions run against window statistics, not raw attributes.
        spec = TriggerOnSpec(interval=60.0, condition="temperature > 25",
                             targets=("x",))
        with pytest.raises(Exception):
            spec.infer_schema([weather_schema])

    def test_trigger_no_targets_raises(self):
        with pytest.raises(DataflowError):
            TriggerOnSpec(interval=60.0, condition="count > 0", targets=())


class TestBuildOperator:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_every_spec_builds_runtime_operator(self, spec):
        operator = spec.build_operator()
        assert operator.input_ports == spec.input_count

    def test_blocking_kinds(self):
        assert AggregationSpec(interval=60.0, attributes=("x",),
                               function="AVG").build_operator().is_blocking
        assert not FilterSpec("true").build_operator().is_blocking


class TestSerialization:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_round_trip(self, spec):
        assert spec_from_dict(spec.to_dict()) == spec

    def test_unknown_kind_raises(self):
        with pytest.raises(DataflowError, match="unknown operator kind"):
            spec_from_dict({"kind": "teleport"})

    def test_bad_parameters_raise(self):
        with pytest.raises(DataflowError, match="bad parameters"):
            spec_from_dict({"kind": "filter", "conditionz": "x"})
