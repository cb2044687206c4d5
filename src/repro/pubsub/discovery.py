"""Sensor discovery and organisation.

Requirements section: *"sources of dataflows should be specified by means
of the sensor and location characteristics.  Finally, sensors can be
organized according to different criteria (temporal/spatial, type/location)
in order to facilitate the specification of dataflows."*

The discovery service answers the designer's palette queries against the
registry and groups results by the organisation criteria the paper names.
"""

from __future__ import annotations

from collections import defaultdict

from repro.errors import PubSubError
from repro.pubsub.registry import SensorMetadata, SensorRegistry
from repro.stt.granularity import temporal_granularity
from repro.stt.spatial import Box, grid_cell_for, representative_point
from repro.stt.thematic import Theme


class DiscoveryService:
    """Query and organise the published sensor fleet."""

    def __init__(self, registry: SensorRegistry) -> None:
        self.registry = registry

    # -- queries ------------------------------------------------------------

    def find(
        self,
        sensor_type: str = "",
        theme: "Theme | str | None" = None,
        area: "Box | None" = None,
        physical: "bool | None" = None,
        min_frequency: float = 0.0,
        max_frequency: float = float("inf"),
    ) -> list[SensorMetadata]:
        """Sensors matching all the given criteria, id-sorted."""
        if min_frequency > max_frequency:
            raise PubSubError(
                f"min_frequency ({min_frequency}) exceeds "
                f"max_frequency ({max_frequency})"
            )
        results = []
        for metadata in self.registry.all():
            if sensor_type and metadata.sensor_type != sensor_type:
                continue
            if theme is not None and not metadata.has_theme(theme):
                continue
            if area is not None and not area.contains(
                representative_point(metadata.location)
            ):
                continue
            if physical is not None and metadata.physical != physical:
                continue
            if not (min_frequency <= metadata.frequency <= max_frequency):
                continue
            results.append(metadata)
        return sorted(results, key=lambda m: m.sensor_id)

    def themes(self) -> list[Theme]:
        """All root themes represented in the fleet."""
        roots = {theme.root for m in self.registry.all() for theme in m.themes}
        return sorted(roots, key=lambda t: t.path)

    # -- organisation criteria (paper: temporal/spatial, type/location) -------

    def group_by_type(self) -> dict[str, list[SensorMetadata]]:
        groups: dict[str, list[SensorMetadata]] = defaultdict(list)
        for metadata in self.registry.all():
            groups[metadata.sensor_type].append(metadata)
        return {
            key: sorted(group, key=lambda m: m.sensor_id)
            for key, group in sorted(groups.items())
        }

    def group_by_location(
        self, granularity: str = "city"
    ) -> dict[str, list[SensorMetadata]]:
        """Group sensors by the spatial-granularity cell containing them."""
        gran = granularity
        groups: dict[str, list[SensorMetadata]] = defaultdict(list)
        for metadata in self.registry.all():
            cell = grid_cell_for(representative_point(metadata.location), gran)
            key = f"{cell.granularity.name}({cell.row},{cell.col})"
            groups[key].append(metadata)
        return {
            key: sorted(group, key=lambda m: m.sensor_id)
            for key, group in sorted(groups.items())
        }

    def group_by_rate(self) -> dict[str, list[SensorMetadata]]:
        """Group sensors by the temporal granularity of their cadence.

        A sensor emitting every 2 seconds lands in the ``second`` bucket;
        one emitting every 10 minutes in ``minute``; and so on.
        """
        order = ("second", "minute", "hour", "day", "week", "month", "year")
        groups: dict[str, list[SensorMetadata]] = defaultdict(list)
        for metadata in self.registry.all():
            bucket = order[-1]
            for name in order:
                if metadata.period <= temporal_granularity(name).seconds:
                    bucket = name
                    break
            groups[bucket].append(metadata)
        return {
            key: sorted(group, key=lambda m: m.sensor_id)
            for key, group in groups.items()
        }

    def group_by_node(self) -> dict[str, list[SensorMetadata]]:
        groups: dict[str, list[SensorMetadata]] = defaultdict(list)
        for metadata in self.registry.all():
            groups[metadata.node_id].append(metadata)
        return {
            key: sorted(group, key=lambda m: m.sensor_id)
            for key, group in sorted(groups.items())
        }
