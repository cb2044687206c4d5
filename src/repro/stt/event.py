"""Events and STT stamps — the atoms of the multigranular data model.

Following the paper: *"an event is a value represented at a given
spatio-temporal granularity for which thematic information is added"*.
Every stream tuple carries an :class:`SttStamp`; an :class:`Event` pairs a
stamp with a value, which is how readings land in the Event Data Warehouse.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import GranularityError
from repro.stt.granularity import (
    SpatialGranularity,
    TemporalGranularity,
    spatial_granularity,
    temporal_granularity,
)
from repro.stt.spatial import (
    Point,
    SpatialObject,
    coarsen as coarsen_spatial,
    representative_point,
)
from repro.stt.temporal import Instant, align_instant
from repro.stt.thematic import Theme


@dataclass(frozen=True)
class SttStamp:
    """Space-time-thematic stamp attached to every stream tuple.

    Attributes:
        time: virtual-time seconds of the reading.
        location: spatial object of the reading (point, box or grid cell).
        temporal_granularity: precision of ``time``.
        spatial_granularity: precision of ``location``.
        themes: thematic tags, e.g. ``(Theme("weather/rain"),)``.
    """

    time: float
    location: SpatialObject
    temporal_granularity: TemporalGranularity = field(
        default_factory=lambda: temporal_granularity("second")
    )
    spatial_granularity: SpatialGranularity = field(
        default_factory=lambda: spatial_granularity("point")
    )
    themes: tuple[Theme, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "temporal_granularity", temporal_granularity(self.temporal_granularity)
        )
        object.__setattr__(
            self, "spatial_granularity", spatial_granularity(self.spatial_granularity)
        )
        themes = tuple(
            theme if isinstance(theme, Theme) else Theme(theme) for theme in self.themes
        )
        object.__setattr__(self, "themes", themes)

    @classmethod
    def typed(
        cls,
        time: float,
        location: SpatialObject,
        temporal_granularity: TemporalGranularity,
        spatial_granularity: SpatialGranularity,
        themes: tuple[Theme, ...],
    ) -> "SttStamp":
        """Assemble a stamp from fields that are already typed.

        The constructor resolves granularity names and theme strings on
        every call; stamp back-fill and the blocking operators build one
        stamp per tuple from granularity objects and ``Theme`` tuples
        they already hold (an advertised schema's, another stamp's), so
        they skip the coercion.  Equal to ``SttStamp(...)`` for such
        inputs; names and strings must go through the constructor.
        """
        stamp = cls.__new__(cls)
        set_ = object.__setattr__
        set_(stamp, "time", time)
        set_(stamp, "location", location)
        set_(stamp, "temporal_granularity", temporal_granularity)
        set_(stamp, "spatial_granularity", spatial_granularity)
        set_(stamp, "themes", themes)
        return stamp

    @property
    def instant(self) -> Instant:
        return Instant(self.time, self.temporal_granularity)

    @property
    def point(self) -> Point:
        """Representative point of the stamped location."""
        return representative_point(self.location)

    def has_theme(self, theme: "Theme | str") -> bool:
        """True when any stamped theme matches (refines or generalises)."""
        target = theme if isinstance(theme, Theme) else Theme(theme)
        return any(t.matches(target) for t in self.themes)

    def with_themes(self, *themes: "Theme | str") -> "SttStamp":
        extra = tuple(t if isinstance(t, Theme) else Theme(t) for t in themes)
        merged = self.themes + tuple(t for t in extra if t not in self.themes)
        return replace(self, themes=merged)

    def coarsened(
        self,
        temporal: "str | TemporalGranularity | None" = None,
        spatial: "str | SpatialGranularity | None" = None,
    ) -> "SttStamp":
        """This stamp re-expressed at coarser granularities.

        Only granularities at or above the current one are accepted; the
        time is aligned to the granule start and the location snapped to the
        containing grid cell.
        """
        stamp = self
        if temporal is not None:
            target = temporal_granularity(temporal)
            if target.rank < stamp.temporal_granularity.rank:
                raise GranularityError(
                    f"cannot coarsen temporal granularity "
                    f"{stamp.temporal_granularity.name} to finer {target.name}"
                )
            stamp = replace(
                stamp,
                time=align_instant(stamp.time, target),
                temporal_granularity=target,
            )
        if spatial is not None:
            target_sp = spatial_granularity(spatial)
            if target_sp.rank < stamp.spatial_granularity.rank:
                raise GranularityError(
                    f"cannot coarsen spatial granularity "
                    f"{stamp.spatial_granularity.name} to finer {target_sp.name}"
                )
            stamp = replace(
                stamp,
                location=coarsen_spatial(stamp.location, target_sp),
                spatial_granularity=target_sp,
            )
        return stamp

    def compatible_with(self, other: "SttStamp") -> bool:
        """Thematic-agnostic composability: granules align once coarsened.

        Two stamps are compatible when, at the coarser of their granularity
        pairs, they fall in the same temporal granule and spatial cell.
        """
        t_gran = max(
            self.temporal_granularity, other.temporal_granularity, key=lambda g: g.rank
        )
        if align_instant(self.time, t_gran) != align_instant(other.time, t_gran):
            return False
        s_gran = max(
            self.spatial_granularity, other.spatial_granularity, key=lambda g: g.rank
        )
        if s_gran.cell_meters <= 0:
            return self.point == other.point
        return coarsen_spatial(self.location, s_gran) == coarsen_spatial(
            other.location, s_gran
        )


@dataclass(frozen=True)
class Event:
    """A value bound to an STT stamp — the unit stored in the warehouse."""

    value: object
    stamp: SttStamp
    source: str = ""

    def coarsened(
        self,
        temporal: "str | TemporalGranularity | None" = None,
        spatial: "str | SpatialGranularity | None" = None,
    ) -> "Event":
        return replace(self, stamp=self.stamp.coarsened(temporal, spatial))
