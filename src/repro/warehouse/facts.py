"""Fact records of the event warehouse, and the columns that store them.

The fact table is columnar (DESIGN.md §9.1): a list of
:class:`FactSegment` runs, each one list per key field and one per
measure or attribute name.  :class:`EventFact` is the value a reader gets;
it is built from the columns when something reads a fact, never stored.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field


@dataclass(frozen=True)
class EventFact:
    """One warehoused event.

    Attributes:
        fact_id: dense id in load order.
        time_key / space_key / source_key: dimension surrogate keys.
        theme_keys: keys of every theme stamped on the event.
        measures: numeric payload attributes (the analysable values).
        attributes: the non-numeric payload attributes, kept verbatim.
        event_time: raw (un-aligned) virtual time of the reading, for
            precise time-range filters.
    """

    fact_id: int
    time_key: int
    space_key: int
    source_key: int
    theme_keys: tuple[int, ...]
    measures: dict[str, float] = field(default_factory=dict)
    attributes: dict[str, object] = field(default_factory=dict)
    event_time: float = 0.0


class FactSegment:
    """A maximal run of facts sharing their measure and attribute names,
    in order: one list per key field, one per measure and attribute name.

    Fact ``start + i`` is row ``i`` of every column.
    """

    __slots__ = (
        "start", "measure_names", "attribute_names", "time_keys",
        "space_keys", "source_keys", "theme_keys", "event_times",
        "measures", "attributes",
    )

    def __init__(self, start: int, measure_names: list, attribute_names: list):
        self.start = start
        self.measure_names = measure_names
        self.attribute_names = attribute_names
        self.time_keys: list[int] = []
        self.space_keys: list[int] = []
        self.source_keys: list[int] = []
        self.theme_keys: list[tuple[int, ...]] = []
        self.event_times: list[float] = []
        self.measures: list[list[float]] = [[] for _ in measure_names]
        self.attributes: list[list[object]] = [[] for _ in attribute_names]

    def __len__(self) -> int:
        return len(self.event_times)

    def measure_column(self, name: str) -> "list[float] | None":
        """The column of measure ``name``, or None if the run has none."""
        try:
            return self.measures[self.measure_names.index(name)]
        except ValueError:
            return None

    def measures_at(self, offset: int) -> "dict[str, float]":
        return {name: column[offset]
                for name, column in zip(self.measure_names, self.measures)}

    def attributes_at(self, offset: int) -> "dict[str, object]":
        return {name: column[offset]
                for name, column in zip(self.attribute_names, self.attributes)}

    def fact(self, offset: int) -> EventFact:
        """Row ``offset`` built into an :class:`EventFact`."""
        return EventFact(
            self.start + offset,
            self.time_keys[offset],
            self.space_keys[offset],
            self.source_keys[offset],
            self.theme_keys[offset],
            self.measures_at(offset),
            self.attributes_at(offset),
            self.event_times[offset],
        )


class FactsView(Sequence):
    """The warehouse's facts as a read-only, live sequence.

    Indexing and iteration build each :class:`EventFact` from the columns
    as it is read — one at a time, so walking every fact holds one.
    Equal to another view or to a list holding equal facts.
    """

    __slots__ = ("_segments", "_starts")

    def __init__(self, segments: "list[FactSegment]", starts: "list[int]"):
        # The warehouse's own lists, appended to as it loads.
        self._segments = segments
        self._starts = starts

    def __len__(self) -> int:
        segments = self._segments
        return segments[-1].start + len(segments[-1]) if segments else 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        size = len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("fact index out of range")
        segment = self._segments[bisect_right(self._starts, index) - 1]
        return segment.fact(index - segment.start)

    def __iter__(self):
        for segment in self._segments:
            for offset in range(len(segment)):
                yield segment.fact(offset)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (FactsView, list)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other))

    __hash__ = None  # type: ignore[assignment]
