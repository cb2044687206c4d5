"""Fluent queries with granularity roll-up over the event warehouse's
columnar fact table."""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Sequence

import numpy as np

from repro.errors import WarehouseError
from repro.stt.spatial import Box
from repro.stt.temporal import align_instant
from repro.stt.thematic import Theme
from repro.warehouse.facts import EventFact, FactSegment

_AGGREGATES = ("count", "avg", "sum", "min", "max")


@dataclass(frozen=True)
class RollupRow:
    """One row of a roll-up result."""

    group: tuple
    value: float
    count: int


class WarehouseQuery:
    """Filter facts, then count / fetch / roll up.

    The selection is fact positions per segment of the warehouse's fact
    table, taken when the query starts; filters read the columns, and only
    :meth:`facts` builds :class:`EventFact` values.

    >>> (warehouse.query()
    ...     .theme("weather/rain")
    ...     .time_range(0.0, 86400.0)
    ...     .rollup_time("hour", measure="rain_rate", agg="avg"))
    ... # doctest: +SKIP
    """

    def __init__(self, warehouse) -> None:
        self._warehouse = warehouse
        #: (segment, offsets still selected in it), in load order.
        self._selection: "list[tuple[FactSegment, Sequence[int]]]" = [
            (segment, range(len(segment))) for segment in warehouse.segments
        ]

    def _where(
        self,
        column_of: "Callable[[FactSegment], list | None]",
        keep: "Callable[[object], bool]",
    ) -> "WarehouseQuery":
        """Keep the positions whose value in ``column_of(segment)`` passes
        ``keep``; a segment without that column keeps none."""
        selection = []
        for segment, offsets in self._selection:
            column = column_of(segment)
            if column is not None:
                selection.append(
                    (segment, [i for i in offsets if keep(column[i])]))
        self._selection = selection
        return self

    # -- filters ------------------------------------------------------------

    def theme(self, theme: "Theme | str") -> "WarehouseQuery":
        keys = self._warehouse.theme_dim.keys_matching(theme)
        return self._where(attrgetter("theme_keys"),
                           lambda fact_keys: not keys.isdisjoint(fact_keys))

    def source(self, source: str) -> "WarehouseQuery":
        # Resolved as the loader interns it, so "" finds "(unknown)".
        key = self._warehouse.source_dim.find(source)
        return self._where(attrgetter("source_keys"),
                           lambda source_key: source_key == key)

    def time_range(self, start: float, end: float) -> "WarehouseQuery":
        if end < start:
            raise WarehouseError(f"time range end ({end}) precedes start ({start})")
        return self._where(attrgetter("event_times"),
                           lambda time: start <= time < end)

    def area(self, box: Box) -> "WarehouseQuery":
        dim = self._warehouse.space_dim
        return self._where(
            attrgetter("space_keys"),
            lambda space_key: box.contains(dim.cell(space_key).center()))

    def where_measure(
        self, name: str, minimum: float = float("-inf"), maximum: float = float("inf")
    ) -> "WarehouseQuery":
        return self._where(lambda segment: segment.measure_column(name),
                           lambda value: minimum <= value <= maximum)

    # -- terminals --------------------------------------------------------------

    def count(self) -> int:
        return sum(len(offsets) for _, offsets in self._selection)

    def facts(self) -> list[EventFact]:
        return [segment.fact(i) for segment, offsets in self._selection
                for i in offsets]

    def measure_values(self, name: str) -> np.ndarray:
        values: list[float] = []
        for segment, offsets in self._selection:
            column = segment.measure_column(name)
            if column is not None:
                values.extend(column[i] for i in offsets)
        return np.asarray(values, dtype=float)

    # -- roll-ups ----------------------------------------------------------------

    def _aggregate(self, values: list[float], agg: str) -> float:
        if agg == "count":
            return float(len(values))
        if not values:
            return float("nan")
        array = np.asarray(values, dtype=float)
        if agg == "avg":
            return float(array.mean())
        if agg == "sum":
            return float(array.sum())
        if agg == "min":
            return float(array.min())
        return float(array.max())

    def _check_agg(self, agg: str) -> str:
        agg = agg.lower()
        if agg not in _AGGREGATES:
            raise WarehouseError(
                f"unknown aggregate {agg!r}; known: {', '.join(_AGGREGATES)}"
            )
        return agg

    def rollup_time(
        self, granularity: str, measure: str, agg: str = "avg"
    ) -> list[RollupRow]:
        """Group facts by temporal granule at ``granularity``; aggregate.

        Rolling *up* only: facts recorded at a coarser granularity than
        requested stay in their own (coarser) granule — their information
        cannot be split downward.
        """
        agg = self._check_agg(agg)
        groups: dict[float, list[float]] = {}
        counts: dict[float, int] = {}
        for segment, offsets in self._selection:
            column = segment.measure_column(measure)
            if column is None and agg != "count":
                continue
            times = segment.event_times
            for i in offsets:
                start = align_instant(times[i], granularity)
                groups.setdefault(start, []).append(
                    0.0 if column is None else column[i])
                counts[start] = counts.get(start, 0) + 1
        return [
            RollupRow(group=(start,), value=self._aggregate(groups[start], agg),
                      count=counts[start])
            for start in sorted(groups)
        ]
