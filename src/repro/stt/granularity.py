"""Temporal and spatial granularity lattices.

A *granularity* partitions a domain (the time line, or geographic space)
into granules.  The paper relies on granularities to correlate data from
heterogeneous sensors ("temperature in a room versus temperatures in a
geographical area") and to impose consistency constraints when streams are
composed: two streams can only be joined or aggregated together at a
granularity both can be coarsened to.

Both lattices here are total orders (a chain), which matches the model in
the STT papers: `second < minute < hour < day < week < month < year` for
time and `point < block < district < ward < city < prefecture < region <
country` for space.  Regular granularities expose an exact size (seconds,
or meters of cell edge); irregular calendar granularities (month, year)
expose a *nominal* size used only for rate computations, while calendar
arithmetic lives in :mod:`repro.stt.temporal`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GranularityError


@dataclass(frozen=True, order=False)
class TemporalGranularity:
    """One level of the temporal granularity chain.

    Attributes:
        name: canonical lower-case name, e.g. ``"hour"``.
        seconds: exact granule length in seconds for regular granularities;
            nominal length for ``month`` (30 days) and ``year`` (365 days).
        regular: whether every granule has exactly ``seconds`` length.
        rank: position in the chain; higher rank means coarser.
    """

    name: str
    seconds: float
    regular: bool
    rank: int

    def is_coarser_than(self, other: "TemporalGranularity") -> bool:
        return self.rank > other.rank

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


@dataclass(frozen=True, order=False)
class SpatialGranularity:
    """One level of the spatial granularity chain.

    Spatial granularities are modelled as square grid cells of a given edge
    length in meters.  ``point`` is the degenerate finest level (edge 0).

    Attributes:
        name: canonical lower-case name, e.g. ``"city"``.
        cell_meters: edge length of a granule cell in meters (0 for point).
        rank: position in the chain; higher rank means coarser.
    """

    name: str
    cell_meters: float
    rank: int

    def is_coarser_than(self, other: "SpatialGranularity") -> bool:
        return self.rank > other.rank

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


_TEMPORAL_CHAIN = [
    ("second", 1.0, True),
    ("minute", 60.0, True),
    ("hour", 3600.0, True),
    ("day", 86400.0, True),
    ("week", 7 * 86400.0, True),
    ("month", 30 * 86400.0, False),
    ("year", 365 * 86400.0, False),
]

_SPATIAL_CHAIN = [
    ("point", 0.0),
    ("block", 100.0),
    ("district", 1000.0),
    ("ward", 5000.0),
    ("city", 20000.0),
    ("prefecture", 100000.0),
    ("region", 500000.0),
    ("country", 2000000.0),
]

TEMPORAL_GRANULARITIES: dict[str, TemporalGranularity] = {
    name: TemporalGranularity(name, seconds, regular, rank)
    for rank, (name, seconds, regular) in enumerate(_TEMPORAL_CHAIN)
}

SPATIAL_GRANULARITIES: dict[str, SpatialGranularity] = {
    name: SpatialGranularity(name, meters, rank)
    for rank, (name, meters) in enumerate(_SPATIAL_CHAIN)
}

_TEMPORAL_ALIASES = {
    "s": "second",
    "sec": "second",
    "seconds": "second",
    "min": "minute",
    "minutes": "minute",
    "h": "hour",
    "hours": "hour",
    "d": "day",
    "days": "day",
    "w": "week",
    "weeks": "week",
    "months": "month",
    "y": "year",
    "years": "year",
}

_SPATIAL_ALIASES = {
    "pt": "point",
    "neighbourhood": "district",
    "neighborhood": "district",
    "town": "city",
    "state": "prefecture",
    "province": "prefecture",
}


def temporal_granularity(name: "str | TemporalGranularity") -> TemporalGranularity:
    """Resolve a temporal granularity by name (accepting common aliases)."""
    if isinstance(name, TemporalGranularity):
        return name
    key = name.strip().lower()
    key = _TEMPORAL_ALIASES.get(key, key)
    try:
        return TEMPORAL_GRANULARITIES[key]
    except KeyError:
        known = ", ".join(TEMPORAL_GRANULARITIES)
        raise GranularityError(
            f"unknown temporal granularity {name!r}; known: {known}"
        ) from None


def spatial_granularity(name: "str | SpatialGranularity") -> SpatialGranularity:
    """Resolve a spatial granularity by name (accepting common aliases)."""
    if isinstance(name, SpatialGranularity):
        return name
    key = name.strip().lower()
    key = _SPATIAL_ALIASES.get(key, key)
    try:
        return SPATIAL_GRANULARITIES[key]
    except KeyError:
        known = ", ".join(SPATIAL_GRANULARITIES)
        raise GranularityError(
            f"unknown spatial granularity {name!r}; known: {known}"
        ) from None


def common_temporal(*grans: "str | TemporalGranularity") -> TemporalGranularity:
    """Return the coarsest of the given temporal granularities.

    This is the least upper bound in the chain: the finest granularity at
    which all inputs can be consistently combined.  Streams stamped at
    different temporal granularities must be coarsened to this level before
    a join or aggregation is meaningful.
    """
    if not grans:
        raise GranularityError("common_temporal requires at least one granularity")
    resolved = [temporal_granularity(g) for g in grans]
    return max(resolved, key=lambda g: g.rank)


def common_spatial(*grans: "str | SpatialGranularity") -> SpatialGranularity:
    """Return the coarsest of the given spatial granularities."""
    if not grans:
        raise GranularityError("common_spatial requires at least one granularity")
    resolved = [spatial_granularity(g) for g in grans]
    return max(resolved, key=lambda g: g.rank)
