"""Sensor metadata and the sensor registry.

A published sensor advertises exactly what the paper lists — its type, its
schema and its frequency of data generation — plus the location and the
network node managing it, which discovery and placement need.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DuplicateSensorError, PubSubError, UnknownSensorError
from repro.schema.schema import StreamSchema
from repro.stt.spatial import SpatialObject
from repro.stt.thematic import Theme


@dataclass(frozen=True)
class SensorMetadata:
    """Advertisement of one published sensor.

    Attributes:
        sensor_id: unique id, e.g. ``"osaka-temp-03"``.
        sensor_type: type label, e.g. ``"temperature"`` or ``"twitter"``.
        schema: schema of the produced tuples (with STT metadata).
        frequency: readings per second (0.2 = one reading every 5 s).
        location: where the sensor sits (social sensors use their coverage
            area's representative point).
        node_id: network node managing this sensor.
        physical: physical (True) vs social (False) sensor.
        description: free-text, shown in the designer palette.
    """

    sensor_id: str
    sensor_type: str
    schema: StreamSchema
    frequency: float
    location: SpatialObject
    node_id: str
    physical: bool = True
    description: str = ""

    def __post_init__(self) -> None:
        if not self.sensor_id:
            raise PubSubError("sensor_id must be non-empty")
        if not self.sensor_type:
            raise PubSubError("sensor_type must be non-empty")
        if self.frequency <= 0:
            raise PubSubError(
                f"sensor {self.sensor_id!r}: frequency must be positive, "
                f"got {self.frequency}"
            )

    @property
    def period(self) -> float:
        """Seconds between consecutive readings."""
        return 1.0 / self.frequency

    @property
    def themes(self) -> tuple[Theme, ...]:
        return self.schema.themes

    def has_theme(self, theme: "Theme | str") -> bool:
        target = theme if isinstance(theme, Theme) else Theme(theme)
        return any(t.matches(target) for t in self.schema.themes)


class SensorRegistry:
    """All currently-published sensors, indexed by id."""

    def __init__(self) -> None:
        self._sensors: dict[str, SensorMetadata] = {}

    def register(self, metadata: SensorMetadata) -> None:
        if metadata.sensor_id in self._sensors:
            raise DuplicateSensorError(
                f"sensor {metadata.sensor_id!r} is already published"
            )
        self._sensors[metadata.sensor_id] = metadata

    def unregister(self, sensor_id: str) -> SensorMetadata:
        try:
            return self._sensors.pop(sensor_id)
        except KeyError:
            raise UnknownSensorError(f"unknown sensor {sensor_id!r}") from None

    def get(self, sensor_id: str) -> SensorMetadata:
        try:
            return self._sensors[sensor_id]
        except KeyError:
            raise UnknownSensorError(f"unknown sensor {sensor_id!r}") from None

    def __contains__(self, sensor_id: object) -> bool:
        return sensor_id in self._sensors

    def __len__(self) -> int:
        return len(self._sensors)

    def all(self) -> list[SensorMetadata]:
        return list(self._sensors.values())

    def by_type(self, sensor_type: str) -> list[SensorMetadata]:
        return [m for m in self._sensors.values() if m.sensor_type == sensor_type]
