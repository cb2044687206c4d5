"""Spatial values of the STT model: points, boxes, grid cells.

Coordinates are WGS84 latitude/longitude degrees unless stated otherwise.
Spatial granularities partition space into square grid cells whose edge
length (in meters) is defined by :mod:`repro.stt.granularity`; a reading at
granularity ``city`` is associated with the city-sized cell containing it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CoordinateError, GranularityError
from repro.stt.granularity import SpatialGranularity, spatial_granularity

#: Meters per degree of latitude (spherical approximation).
METERS_PER_DEG_LAT = 111_320.0


def _validate_lat_lon(lat: float, lon: float) -> None:
    if not (-90.0 <= lat <= 90.0):
        raise CoordinateError(f"latitude {lat} out of range [-90, 90]")
    if not (-180.0 <= lon <= 180.0):
        raise CoordinateError(f"longitude {lon} out of range [-180, 180]")


@dataclass(frozen=True)
class Point:
    """A WGS84 point (latitude, longitude in degrees)."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        _validate_lat_lon(self.lat, self.lon)

    def distance_m(self, other: "Point") -> float:
        """Great-circle distance to ``other`` in meters."""
        from repro.stt.geo import haversine_m

        return haversine_m(self.lat, self.lon, other.lat, other.lon)


@dataclass(frozen=True)
class Box:
    """An axis-aligned lat/lon rectangle ``[south, north] x [west, east]``.

    This is the "area delimited by coord1, coord2" of the paper's Cull Space
    operator: two corner coordinates define the box.
    """

    south: float
    west: float
    north: float
    east: float

    def __post_init__(self) -> None:
        _validate_lat_lon(self.south, self.west)
        _validate_lat_lon(self.north, self.east)
        if self.south > self.north:
            raise CoordinateError(
                f"box south ({self.south}) exceeds north ({self.north})"
            )
        if self.west > self.east:
            raise CoordinateError(f"box west ({self.west}) exceeds east ({self.east})")

    @classmethod
    def from_corners(cls, corner1: Point, corner2: Point) -> "Box":
        """Build a box from two arbitrary opposite corners."""
        return cls(
            south=min(corner1.lat, corner2.lat),
            west=min(corner1.lon, corner2.lon),
            north=max(corner1.lat, corner2.lat),
            east=max(corner1.lon, corner2.lon),
        )

    def contains(self, point: Point) -> bool:
        return (
            self.south <= point.lat <= self.north
            and self.west <= point.lon <= self.east
        )

    def center(self) -> Point:
        return Point((self.south + self.north) / 2.0, (self.west + self.east) / 2.0)


@dataclass(frozen=True)
class GridCell:
    """One cell of a spatial granularity grid.

    Cells are indexed by integer (row, col) within the granularity's global
    grid anchored at (lat=-90, lon=-180).  A cell knows its bounding box, so
    it doubles as a spatial object for coarse-granularity readings.
    """

    granularity: SpatialGranularity
    row: int
    col: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "granularity", spatial_granularity(self.granularity))
        if self.granularity.cell_meters <= 0:
            raise GranularityError(
                "grid cells are undefined at the 'point' granularity"
            )

    @property
    def _deg_lat(self) -> float:
        return self.granularity.cell_meters / METERS_PER_DEG_LAT

    def bounds(self) -> Box:
        """Bounding box of this cell (clamped to valid lat/lon).

        Boundaries are computed from the global grid lines (``-90 + k*d``)
        so adjacent cells share them exactly — no floating-point cracks.
        """
        d = self._deg_lat
        south = max(-90.0, -90.0 + self.row * d)
        west = max(-180.0, -180.0 + self.col * d)
        north = min(90.0, -90.0 + (self.row + 1) * d)
        east = min(180.0, -180.0 + (self.col + 1) * d)
        return Box(south=south, west=west, north=north, east=east)

    def center(self) -> Point:
        return self.bounds().center()


#: A spatial object is any of the shapes a sensor reading can carry.
SpatialObject = Point | Box | GridCell


def cell_index(
    lat: float, lon: float, granularity: SpatialGranularity
) -> tuple[int, int]:
    """``(row, col)`` of the granularity grid cell containing a valid lat/lon.

    The one implementation of cell assignment: :func:`grid_cell_for`, the
    Sticker feed and the warehouse's space dimension all call it, so a
    reading lands in the same cell whichever sink it reaches.  It is plain
    float arithmetic — no ``GridCell``/``Box`` is built — because sinks
    call it once per tuple.

    The grid uses equal *degree* spacing derived from the granularity's
    nominal cell edge at the equator — a deliberate simplification (the STT
    papers use administrative regions, which we approximate with a uniform
    grid; the library only needs *consistent* cell assignment, and a uniform
    grid gives identical cells for identical inputs).
    """
    meters = granularity.cell_meters
    if meters <= 0:
        raise GranularityError("cannot snap to grid at the 'point' granularity")
    d = meters / METERS_PER_DEG_LAT
    row = int((lat + 90.0) // d)
    col = int((lon + 180.0) // d)
    # Floating-point boundary cases: the floor division and the grid lines
    # of GridCell.bounds (``-90 + k*d``) round differently, so nudge until
    # the cell's bounds contain the point.  For a valid lat/lon the clamps
    # bounds() applies at the poles and the antimeridian never change the
    # outcome of these comparisons.
    if lat < -90.0 + row * d:
        row -= 1
    elif lat > -90.0 + (row + 1) * d:
        row += 1
    if lon < -180.0 + col * d:
        col -= 1
    elif lon > -180.0 + (col + 1) * d:
        col += 1
    return row, col


def grid_cell_for(point: Point, granularity: "str | SpatialGranularity") -> GridCell:
    """The granularity grid cell containing ``point`` (see :func:`cell_index`)."""
    gran = spatial_granularity(granularity)
    row, col = cell_index(point.lat, point.lon, gran)
    return GridCell(gran, row, col)


def representative_point(obj: SpatialObject) -> Point:
    """A canonical point for any spatial object (itself, or its center)."""
    if isinstance(obj, Point):
        return obj
    if isinstance(obj, (Box, GridCell)):
        return obj.center()
    raise CoordinateError(f"unsupported spatial object {type(obj).__name__}")


def within(obj: SpatialObject, box: Box) -> bool:
    """True when the object's representative point falls inside ``box``."""
    return box.contains(representative_point(obj))
