"""Conformed dimensions of the event warehouse.

Each dimension interns its members and hands out dense surrogate keys, the
classical star-schema mechanics.  Time and space members are *granules* —
the warehouse stores events at the granularity they arrived at and rolls
up along the granularity chains at query time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WarehouseError
from repro.stt.granularity import (
    SpatialGranularity,
    TemporalGranularity,
    spatial_granularity,
    temporal_granularity,
)
from repro.stt.spatial import (
    GridCell,
    Point,
    SpatialObject,
    cell_index,
    representative_point,
)
from repro.stt.temporal import align_instant
from repro.stt.thematic import Theme


class _Interning:
    """Member -> surrogate key interning shared by all dimensions.

    ``_keys`` is looked up by a member's plain hashable *identity* — the
    member itself for themes and sources, a tuple of its fields for time
    and space granules, so the per-row hit path builds no member object.
    """

    def __init__(self) -> None:
        self._keys: dict[object, int] = {}
        self._members: list[object] = []

    def intern(self, member: object) -> int:
        key = self._keys.get(member)
        if key is None:
            key = self._add(member, member)
        return key

    def _add(self, identity: object, member: object) -> int:
        key = self._keys[identity] = len(self._members)
        self._members.append(member)
        return key

    def member(self, key: int) -> object:
        try:
            return self._members[key]
        except IndexError:
            raise WarehouseError(f"no dimension member with key {key}") from None

    def __len__(self) -> int:
        return len(self._members)


@dataclass(frozen=True)
class TimeMember:
    """One temporal granule: granularity name + aligned start."""

    granularity: str
    start: float


class TimeDimension(_Interning):
    """Granule members along the temporal granularity chain."""

    def key_for(
        self, time: float, granularity: "str | TemporalGranularity"
    ) -> int:
        gran = temporal_granularity(granularity)
        identity = (gran.name, align_instant(time, gran))
        key = self._keys.get(identity)
        if key is None:
            key = self._add(identity, TimeMember(*identity))
        return key

    def member(self, key: int) -> TimeMember:  # narrowed return type
        return super().member(key)  # type: ignore[return-value]


@dataclass(frozen=True)
class SpaceMember:
    """One spatial granule: granularity + cell indices (or a raw point)."""

    granularity: str
    row: int
    col: int


_BLOCK = spatial_granularity("block")


class SpaceDimension(_Interning):
    """Cell members along the spatial granularity chain.

    Point-granularity locations are interned at the finest gridded level
    (``block``) so every fact lands in some cell.
    """

    def key_for(
        self, location: SpatialObject, granularity: "str | SpatialGranularity"
    ) -> int:
        gran = spatial_granularity(granularity)
        if gran.cell_meters <= 0:
            gran = _BLOCK
        point = representative_point(location)
        row, col = cell_index(point.lat, point.lon, gran)
        identity = (gran.name, row, col)
        key = self._keys.get(identity)
        if key is None:
            key = self._add(identity, SpaceMember(*identity))
        return key

    def member(self, key: int) -> SpaceMember:
        return super().member(key)  # type: ignore[return-value]

    def cell(self, key: int) -> GridCell:
        member = self.member(key)
        return GridCell(
            spatial_granularity(member.granularity), member.row, member.col
        )


class ThemeDimension(_Interning):
    """Theme members (paths)."""

    def key_for(self, theme: "Theme | str") -> int:
        resolved = theme if isinstance(theme, Theme) else Theme(theme)
        return self.intern(resolved.path)

    def member(self, key: int) -> str:
        return super().member(key)  # type: ignore[return-value]

    def keys_matching(self, theme: "Theme | str") -> set[int]:
        """Keys of all interned themes matching (sub/super) the given one."""
        target = theme if isinstance(theme, Theme) else Theme(theme)
        return {
            self._keys[path]
            for path in self._keys
            if Theme(path).matches(target)
        }


class SourceDimension(_Interning):
    """Producing sensor / derived-stream labels; an empty label is
    interned as ``"(unknown)"``."""

    def key_for(self, source: str) -> int:
        return self.intern(source or "(unknown)")

    def find(self, source: str) -> "int | None":
        """The key ``source`` resolves to, or None; interns nothing."""
        return self._keys.get(source or "(unknown)")

    def member(self, key: int) -> str:
        return super().member(key)  # type: ignore[return-value]
