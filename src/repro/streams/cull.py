"""Cull Time / Cull Space — γr(s, region): down-sample tuples in a region.

Table 1: *"Culling the tuples in the temporal interval [t1, t2] (resp. the
area delimited by coord1, coord2) by a reducing rate r."*

Interpretation (documented because the paper gives only the one line):
tuples that fall **inside** the region are reduced to one out of every
``r`` (deterministically, by a per-operator counter); tuples outside the
region pass through untouched.  ``r = 1`` keeps everything; ``r = 10``
keeps every tenth matching tuple.  This matches the operator's purpose in
the paper — taming the volume of a hot time window or geographic area
without losing the rest of the stream.
"""

from __future__ import annotations

from repro.errors import DataflowError
from repro.streams.base import NonBlockingOperator
from repro.streams.tuple import SensorTuple
from repro.stt.spatial import Box, Point, within
from repro.stt.temporal import Interval


class _CullBase(NonBlockingOperator):
    def __init__(self, rate: int, name: str) -> None:
        super().__init__(name)
        if not isinstance(rate, int) or rate < 1:
            raise DataflowError(f"reducing rate must be an integer >= 1, got {rate!r}")
        self.rate = rate
        self._counter = 0

    def _stamp_in_region(self, stamp) -> bool:
        raise NotImplementedError

    def _process(self, tuple_: SensorTuple, port: int) -> list[SensorTuple]:
        if not self._stamp_in_region(tuple_.stamp):
            return [tuple_]
        self._counter += 1
        if self._counter % self.rate == 0:
            return [tuple_]
        return []

    def columnar_step(self, col, sel):
        """Column kernel: region test over the stamp column, with the
        deterministic down-sampling counter held in a local and written
        back once."""
        stamps = col.stamp_column()
        in_region = self._stamp_in_region
        rate = self.rate
        counter = self._counter
        keep: list[int] = []
        append = keep.append
        for i in sel:
            if not in_region(stamps[i]):
                append(i)
                continue
            counter += 1
            if counter % rate == 0:
                append(i)
        self._counter = counter
        return keep, 0

    def reset(self) -> None:
        super().reset()
        self._counter = 0


class CullTimeOperator(_CullBase):
    """γr(s, ⟨t1, t2⟩): down-sample tuples stamped inside [t1, t2].

    >>> op = CullTimeOperator(rate=10, start=0.0, end=3600.0)
    """

    def __init__(self, rate: int, start: float, end: float, name: str = "") -> None:
        super().__init__(rate, name or "cull-time")
        self.window = Interval(start, end)

    def _stamp_in_region(self, stamp) -> bool:
        return self.window.contains(stamp.time)

    def describe(self) -> str:
        return f"γ{self.rate}(s, ⟨{self.window.start}, {self.window.end}⟩)"


class CullSpaceOperator(_CullBase):
    """γr(s, ⟨coord1, coord2⟩): down-sample tuples inside the corner box.

    >>> op = CullSpaceOperator(
    ...     rate=5, corner1=Point(34.5, 135.3), corner2=Point(34.9, 135.7))
    """

    def __init__(
        self,
        rate: int,
        corner1: "Point | tuple[float, float]",
        corner2: "Point | tuple[float, float]",
        name: str = "",
    ) -> None:
        super().__init__(rate, name or "cull-space")
        if not isinstance(corner1, Point):
            corner1 = Point(*corner1)
        if not isinstance(corner2, Point):
            corner2 = Point(*corner2)
        self.area = Box.from_corners(corner1, corner2)

    def _stamp_in_region(self, stamp) -> bool:
        return within(stamp.location, self.area)

    def describe(self) -> str:
        return (
            f"γ{self.rate}(s, ⟨({self.area.south},{self.area.west}), "
            f"({self.area.north},{self.area.east})⟩)"
        )
