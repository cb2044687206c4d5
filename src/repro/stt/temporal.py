"""Temporal values of the STT model: instants, intervals, granules.

All times in the library are numeric **virtual-time seconds** relative to an
arbitrary epoch (the start of a simulation).  Using plain floats keeps the
discrete-event simulator and the stream operators fast, while calendar
granularities (day/week/month/year) are handled by explicit alignment
arithmetic on top of a configurable epoch calendar.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GranularityError
from repro.stt.granularity import TemporalGranularity, temporal_granularity

#: Days per month used by the nominal calendar (non-leap year starting March
#: is irrelevant here: the simulation epoch is taken as Jan 1, 00:00).
_MONTH_DAYS = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
_SECONDS_PER_DAY = 86400.0
_SECONDS_PER_YEAR = 365 * _SECONDS_PER_DAY

_MONTH_STARTS = []
_acc = 0.0
for _d in _MONTH_DAYS:
    _MONTH_STARTS.append(_acc)
    _acc += _d * _SECONDS_PER_DAY


@dataclass(frozen=True)
class Instant:
    """A point on the virtual time line, stamped with a granularity.

    ``seconds`` is the offset from the simulation epoch.  The granularity
    records the precision the producing sensor reported: an instant at
    granularity ``hour`` is understood as "somewhere within that hour".
    """

    seconds: float
    granularity: TemporalGranularity

    def __post_init__(self) -> None:
        object.__setattr__(self, "granularity", temporal_granularity(self.granularity))

    def aligned(self) -> float:
        """Start of the granule containing this instant."""
        return align_instant(self.seconds, self.granularity)

    def granule(self) -> "Granule":
        """The granule (index + bounds) containing this instant."""
        start = self.aligned()
        end = _granule_end(start, self.granularity)
        return Granule(self.granularity, start, end)

    def coarsened(self, to: "str | TemporalGranularity") -> "Instant":
        """This instant re-stamped at a coarser granularity."""
        target = temporal_granularity(to)
        if target.rank < self.granularity.rank:
            raise GranularityError(
                f"cannot coarsen {self.granularity.name} instant to finer "
                f"granularity {target.name}"
            )
        return Instant(align_instant(self.seconds, target), target)

    def same_granule(self, other: "Instant") -> bool:
        """True when both instants fall in the same granule of the coarser
        of the two granularities."""
        coarser = max(self.granularity, other.granularity, key=lambda g: g.rank)
        return align_instant(self.seconds, coarser) == align_instant(
            other.seconds, coarser
        )


@dataclass(frozen=True)
class Interval:
    """A half-open interval ``[start, end)`` on the virtual time line."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise GranularityError(
                f"interval end ({self.end}) precedes start ({self.start})"
            )

    @property
    def length(self) -> float:
        return self.end - self.start

    def contains(self, t: "float | Instant") -> bool:
        seconds = t.seconds if isinstance(t, Instant) else t
        return self.start <= seconds < self.end

    def overlaps(self, other: "Interval") -> bool:
        return self.start < other.end and other.start < self.end

    def intersection(self, other: "Interval") -> "Interval | None":
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if lo >= hi:
            return None
        return Interval(lo, hi)


@dataclass(frozen=True)
class Granule:
    """One cell of a temporal granularity: its level and its bounds."""

    granularity: TemporalGranularity
    start: float
    end: float

    def contains(self, t: "float | Instant") -> bool:
        seconds = t.seconds if isinstance(t, Instant) else t
        return self.start <= seconds < self.end


def _year_and_offset(seconds: float) -> tuple[int, float]:
    year = int(seconds // _SECONDS_PER_YEAR)
    return year, seconds - year * _SECONDS_PER_YEAR


def _month_start(seconds: float) -> float:
    year, offset = _year_and_offset(seconds)
    base = year * _SECONDS_PER_YEAR
    # Find the last month whose start is <= offset.
    start = _MONTH_STARTS[0]
    for month_start in _MONTH_STARTS:
        if month_start <= offset:
            start = month_start
        else:
            break
    return base + start


def align_instant(seconds: float, granularity: "str | TemporalGranularity") -> float:
    """Align ``seconds`` to the start of its granule at ``granularity``.

    Regular granularities floor to a multiple of the granule length;
    ``month`` and ``year`` follow the nominal (non-leap) calendar anchored
    at the epoch.
    """
    gran = temporal_granularity(granularity)
    if gran.name == "month":
        return _month_start(seconds)
    if gran.name == "year":
        year, _ = _year_and_offset(seconds)
        return year * _SECONDS_PER_YEAR
    size = gran.seconds
    return (seconds // size) * size


def _granule_end(start: float, gran: TemporalGranularity) -> float:
    if gran.name == "month":
        year, offset = _year_and_offset(start)
        base = year * _SECONDS_PER_YEAR
        for index, month_start in enumerate(_MONTH_STARTS):
            if base + month_start == start:
                if index + 1 < len(_MONTH_STARTS):
                    return base + _MONTH_STARTS[index + 1]
                return base + _SECONDS_PER_YEAR
        # Not a month boundary (shouldn't happen for aligned starts).
        return start + gran.seconds
    if gran.name == "year":
        return start + _SECONDS_PER_YEAR
    return start + gran.seconds


def granule_index(seconds: float, granularity: "str | TemporalGranularity") -> int:
    """Dense integer index of the granule containing ``seconds``.

    Two instants share a granule iff their indices are equal; useful as a
    grouping key in windowed operators.
    """
    gran = temporal_granularity(granularity)
    if gran.name == "month":
        year, offset = _year_and_offset(seconds)
        month = 0
        for index, month_start in enumerate(_MONTH_STARTS):
            if month_start <= offset:
                month = index
        return year * 12 + month
    if gran.name == "year":
        year, _ = _year_and_offset(seconds)
        return year
    return int(seconds // gran.seconds)
