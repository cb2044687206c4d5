"""The Sticker feed: binned geo-temporal aggregates of a stream."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import GranularityError, StreamLoaderError
from repro.streams.tuple import UNSEEN, SensorTuple, TupleBatch, message_members
from repro.stt.granularity import SpatialGranularity, spatial_granularity
from repro.stt.spatial import cell_index, representative_point
from repro.stt.thematic import Theme

#: Stands in for the theme tuple of an untagged reading.
_UNTAGGED = (None,)


@dataclass
class TrendPoint:
    """One (time bucket, cell, theme) aggregate."""

    bucket_start: float
    row: int
    col: int
    theme: str
    count: int = 0
    numeric_sums: dict[str, float] = field(default_factory=dict)
    numeric_counts: dict[str, int] = field(default_factory=dict)

    def mean(self, attribute: str) -> float:
        count = self.numeric_counts.get(attribute, 0)
        if count == 0:
            return float("nan")
        return self.numeric_sums[attribute] / count


class StickerFeed:
    """Accumulates pushed tuples into trend bins.

    Args:
        bucket_seconds: temporal bin width.
        cell_granularity: spatial bin granularity (a gridded level, by
            name or object); resolved once, here.
    """

    def __init__(
        self,
        bucket_seconds: float = 3600.0,
        cell_granularity: "str | SpatialGranularity" = "district",
    ) -> None:
        if bucket_seconds <= 0:
            raise StreamLoaderError(
                f"bucket_seconds must be positive: {bucket_seconds}"
            )
        granularity = spatial_granularity(cell_granularity)
        if granularity.cell_meters <= 0:
            raise GranularityError(
                f"a Sticker feed bins by grid cell, which "
                f"{granularity.name!r} does not define"
            )
        self.bucket_seconds = bucket_seconds
        self.cell_granularity = granularity
        #: (bucket, row, col, theme path) -> bin.
        self._bins: dict[tuple[int, int, int, str], TrendPoint] = {}
        self.pushed = 0

    def push(self, payload: "SensorTuple | TupleBatch") -> None:
        """Accumulate a message's processed tuples into their bins (one
        per theme).

        What derives from the stamp is resolved once per run of
        consecutive members sharing it — the cell while the location
        object repeats, the bin list while bucket, cell and themes do (a
        gateway's micro-batch is one run) — and each member's values are
        still added to the sums in arrival order.
        """
        members = message_members(payload)
        self.pushed += len(members)
        bins = self._bins
        bucket_seconds = self.bucket_seconds
        last_location = last_themes = last_bucket = UNSEEN
        for tuple_ in members:
            stamp = tuple_.stamp
            bucket = int(stamp.time // bucket_seconds)
            location = stamp.location
            themes = stamp.themes
            if (location is not last_location or themes is not last_themes
                    or bucket != last_bucket):
                if location is not last_location:
                    point = representative_point(location)
                    row, col = cell_index(
                        point.lat, point.lon, self.cell_granularity)
                run = []
                for theme in themes or _UNTAGGED:
                    path = "(untagged)" if theme is None else theme.path
                    key = (bucket, row, col, path)
                    bin_ = bins.get(key)
                    if bin_ is None:
                        bin_ = bins[key] = TrendPoint(
                            bucket * bucket_seconds, row, col, path)
                    run.append(bin_)
                last_location, last_themes, last_bucket = (
                    location, themes, bucket)
            for bin_ in run:
                bin_.count += 1
                sums = bin_.numeric_sums
                counts = bin_.numeric_counts
                for name, value in tuple_.payload.items():
                    # Numeric means int or float but not bool; exact types
                    # are settled without an isinstance walk.
                    kind = type(value)
                    if kind is float:
                        pass
                    elif kind is int or (
                        kind is not str
                        and kind is not bool
                        and isinstance(value, (int, float))
                    ):
                        value = float(value)
                    else:
                        continue
                    sums[name] = sums.get(name, 0.0) + value
                    counts[name] = counts.get(name, 0) + 1

    # -- queries ------------------------------------------------------------

    def bins(self) -> list[TrendPoint]:
        return sorted(
            self._bins.values(),
            key=lambda b: (b.bucket_start, b.theme, b.row, b.col),
        )

    def series(self, theme: "Theme | str") -> list[TrendPoint]:
        """Time-ordered trend of one theme, summed over space."""
        target = theme if isinstance(theme, Theme) else Theme(theme)
        by_bucket: dict[float, TrendPoint] = {}
        for bin_ in self._bins.values():
            if not Theme(bin_.theme).matches(target):
                continue
            merged = by_bucket.get(bin_.bucket_start)
            if merged is None:
                merged = TrendPoint(
                    bucket_start=bin_.bucket_start, row=-1, col=-1, theme=target.path
                )
                by_bucket[bin_.bucket_start] = merged
            merged.count += bin_.count
            for name, total in bin_.numeric_sums.items():
                merged.numeric_sums[name] = merged.numeric_sums.get(name, 0.0) + total
                merged.numeric_counts[name] = (
                    merged.numeric_counts.get(name, 0) + bin_.numeric_counts[name]
                )
        return [by_bucket[key] for key in sorted(by_bucket)]

    def themes(self) -> list[str]:
        return sorted({bin_.theme for bin_ in self._bins.values()})
