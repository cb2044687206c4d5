"""STT stamps — the atoms of the multigranular data model.

Following the paper: *"an event is a value represented at a given
spatio-temporal granularity for which thematic information is added"*.
Every stream tuple carries an :class:`SttStamp`: the instant, the location
and the themes its value is represented at.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.stt.granularity import (
    SpatialGranularity,
    TemporalGranularity,
    spatial_granularity,
    temporal_granularity,
)
from repro.stt.spatial import (
    Point,
    SpatialObject,
    representative_point,
)
from repro.stt.temporal import Instant
from repro.stt.thematic import Theme


@dataclass(frozen=True, slots=True)
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
