"""Space-Time-Thematic (STT) multigranular data model.

Implements the data model the paper inherits from EventShop [Dao et al.,
2012]: sensor readings are *events* — a value associated with a spatial
object at a given time, represented at explicit temporal and spatial
granularities, enriched with thematic tags.  Granularities drive both the
correlation of data produced by different sensors and the consistency
constraints enforced when heterogeneous streams are composed.
"""

from repro.stt.granularity import (
    TemporalGranularity,
    SpatialGranularity,
    TEMPORAL_GRANULARITIES,
    SPATIAL_GRANULARITIES,
    temporal_granularity,
    spatial_granularity,
    common_temporal,
    common_spatial,
)
from repro.stt.temporal import Instant, Interval, Granule, align_instant
from repro.stt.spatial import (
    Point,
    Box,
    GridCell,
    SpatialObject,
    cell_index,
    grid_cell_for,
)
from repro.stt.thematic import Theme, ThemeTaxonomy, DEFAULT_TAXONOMY
from repro.stt.units import Unit, UnitRegistry, DEFAULT_UNITS, convert
from repro.stt.geo import haversine_m
from repro.stt.event import SttStamp

__all__ = [
    "TemporalGranularity",
    "SpatialGranularity",
    "TEMPORAL_GRANULARITIES",
    "SPATIAL_GRANULARITIES",
    "temporal_granularity",
    "spatial_granularity",
    "common_temporal",
    "common_spatial",
    "Instant",
    "Interval",
    "Granule",
    "align_instant",
    "Point",
    "Box",
    "GridCell",
    "SpatialObject",
    "cell_index",
    "grid_cell_for",
    "Theme",
    "ThemeTaxonomy",
    "DEFAULT_TAXONOMY",
    "Unit",
    "UnitRegistry",
    "DEFAULT_UNITS",
    "convert",
    "haversine_m",
    "SttStamp",
]
