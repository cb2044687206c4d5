"""Unit tests for sensor metadata and the registry."""

import pytest

from repro.errors import DuplicateSensorError, PubSubError, UnknownSensorError
from repro.pubsub.registry import SensorMetadata, SensorRegistry
from repro.schema.schema import StreamSchema
from repro.stt.spatial import Point


def make_metadata(sensor_id="temp-1", sensor_type="temperature",
                  frequency=1.0 / 60.0, node_id="edge-0", themes=("weather/temperature",)):
    return SensorMetadata(
        sensor_id=sensor_id,
        sensor_type=sensor_type,
        schema=StreamSchema.build({"v": "float"}, themes=themes),
        frequency=frequency,
        location=Point(34.69, 135.50),
        node_id=node_id,
    )


class TestMetadata:
    def test_period(self):
        assert make_metadata(frequency=0.5).period == 2.0

    def test_empty_id_raises(self):
        with pytest.raises(PubSubError):
            make_metadata(sensor_id="")

    def test_empty_type_raises(self):
        with pytest.raises(PubSubError):
            make_metadata(sensor_type="")

    def test_zero_frequency_raises(self):
        with pytest.raises(PubSubError):
            make_metadata(frequency=0.0)

    def test_themes_from_schema(self):
        metadata = make_metadata()
        assert metadata.has_theme("weather")
        assert not metadata.has_theme("mobility")


class TestRegistry:
    def test_register_get(self):
        registry = SensorRegistry()
        metadata = make_metadata()
        registry.register(metadata)
        assert registry.get("temp-1") is metadata
        assert "temp-1" in registry
        assert len(registry) == 1

    def test_duplicate_raises(self):
        registry = SensorRegistry()
        registry.register(make_metadata())
        with pytest.raises(DuplicateSensorError):
            registry.register(make_metadata())

    def test_unregister(self):
        registry = SensorRegistry()
        registry.register(make_metadata())
        removed = registry.unregister("temp-1")
        assert removed.sensor_id == "temp-1"
        assert "temp-1" not in registry

    def test_unknown_raises(self):
        registry = SensorRegistry()
        with pytest.raises(UnknownSensorError):
            registry.get("ghost")
        with pytest.raises(UnknownSensorError):
            registry.unregister("ghost")

    def test_by_type_and_node(self):
        registry = SensorRegistry()
        registry.register(make_metadata("a", "temperature", node_id="n1"))
        registry.register(make_metadata("b", "rain", node_id="n1"))
        registry.register(make_metadata("c", "temperature", node_id="n2"))
        assert {m.sensor_id for m in registry.by_type("temperature")} == {"a", "c"}
