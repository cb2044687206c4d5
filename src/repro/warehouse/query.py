"""Fluent queries with granularity roll-up over the event warehouse."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WarehouseError
from repro.stt.spatial import Box
from repro.stt.temporal import align_instant
from repro.stt.thematic import Theme
from repro.warehouse.facts import EventFact

_AGGREGATES = ("count", "avg", "sum", "min", "max")


@dataclass(frozen=True)
class RollupRow:
    """One row of a roll-up result."""

    group: tuple
    value: float
    count: int


class WarehouseQuery:
    """Filter facts, then count / fetch / roll up.

    >>> (warehouse.query()
    ...     .theme("weather/rain")
    ...     .time_range(0.0, 86400.0)
    ...     .rollup_time("hour", measure="rain_rate", agg="avg"))
    ... # doctest: +SKIP
    """

    def __init__(self, warehouse) -> None:
        self._warehouse = warehouse
        self._facts: list[EventFact] = list(warehouse.facts)

    # -- filters ------------------------------------------------------------

    def theme(self, theme: "Theme | str") -> "WarehouseQuery":
        keys = self._warehouse.theme_dim.keys_matching(theme)
        self._facts = [
            fact for fact in self._facts if any(k in keys for k in fact.theme_keys)
        ]
        return self

    def source(self, source: str) -> "WarehouseQuery":
        self._facts = [
            fact
            for fact in self._facts
            if self._warehouse.source_dim.member(fact.source_key) == source
        ]
        return self

    def time_range(self, start: float, end: float) -> "WarehouseQuery":
        if end < start:
            raise WarehouseError(f"time range end ({end}) precedes start ({start})")
        self._facts = [
            fact for fact in self._facts if start <= fact.event_time < end
        ]
        return self

    def area(self, box: Box) -> "WarehouseQuery":
        dim = self._warehouse.space_dim
        self._facts = [
            fact
            for fact in self._facts
            if box.contains(dim.cell(fact.space_key).center())
        ]
        return self

    def where_measure(
        self, name: str, minimum: float = float("-inf"), maximum: float = float("inf")
    ) -> "WarehouseQuery":
        self._facts = [
            fact
            for fact in self._facts
            if name in fact.measures and minimum <= fact.measures[name] <= maximum
        ]
        return self

    # -- terminals --------------------------------------------------------------

    def count(self) -> int:
        return len(self._facts)

    def facts(self) -> list[EventFact]:
        return list(self._facts)

    def measure_values(self, name: str) -> np.ndarray:
        return np.asarray(
            [fact.measures[name] for fact in self._facts if name in fact.measures],
            dtype=float,
        )

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
        for fact in self._facts:
            if measure not in fact.measures and agg != "count":
                continue
            start = align_instant(fact.event_time, granularity)
            groups.setdefault(start, []).append(fact.measures.get(measure, 0.0))
            counts[start] = counts.get(start, 0) + 1
        return [
            RollupRow(group=(start,), value=self._aggregate(groups[start], agg),
                      count=counts[start])
            for start in sorted(groups)
        ]
