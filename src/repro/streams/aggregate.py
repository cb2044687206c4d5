"""Aggregation — @t,{a1..an} op (s): windowed aggregation.

Table 1: *"Every t time intervals, aggregate s on the attributes
{a1, ..., an} and apply the aggregation function op ∈ {COUNT, AVG, SUM,
MIN, MAX}."*

Blocking: tuples are cached; every ``t`` seconds the window is evaluated
and output tuples carry ``<fn>_<attr>`` per attribute (see
:func:`repro.schema.infer.aggregate_schema`).  An empty window emits
nothing — there is no reading to aggregate.  Output stamps use the
window-end time at a temporal granularity covering ``t``, and the bounding
box of the window's readings.

Two extensions beyond the paper's one-liner (both off by default):

- ``group_by``: partition each window by a key attribute and emit one
  tuple per group (per-station hourly means, the obvious multi-sensor
  need);
- ``window``: a sliding lookback longer than the flush interval, giving
  "mean over the last hour, every five minutes" — the same
  interval/window split the Trigger operators use.

Flushes are **incremental** by default: per-group running accumulators
(non-null count, sum, min, max, bounding box) are updated as tuples enter
the cache and as the cache evicts them, so ``_flush`` emits from O(groups)
state instead of rescanning the window.  Min/max (and the bounding box)
cannot be decremented, so an eviction that removes the current extremum
marks the accumulator dirty and the next flush recomputes just that piece
from the group's members — amortized O(1) per tuple.  ``incremental=False``
restores the original rescan-every-flush behaviour (:meth:`_aggregate_group`
is kept verbatim as that reference path, and the parity oracle for tests).
Non-numeric attribute values can't be accumulated; they flag the
group/attribute for rescan at flush, reproducing the reference semantics
(including its errors) for that slice only.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

import numpy as np

from repro.errors import DataflowError
from repro.schema.infer import AGGREGATION_FUNCTIONS
from repro.streams.base import BlockingOperator
from repro.streams.tuple import UNSEEN, SensorTuple
from repro.streams.windows import TupleCache
from repro.stt.event import SttStamp
from repro.stt.granularity import temporal_granularity
from repro.stt.spatial import Box, representative_point


def _covering_granularity(interval: float):
    for name in ("second", "minute", "hour", "day", "week", "month", "year"):
        gran = temporal_granularity(name)
        if gran.seconds >= interval:
            return gran
    return temporal_granularity("year")


def _bounding_location(tuples: list[SensorTuple]):
    points = [representative_point(t.stamp.location) for t in tuples]
    if len(points) == 1:
        return points[0]
    south = min(p.lat for p in points)
    north = max(p.lat for p in points)
    west = min(p.lon for p in points)
    east = max(p.lon for p in points)
    if south == north and west == east:
        return points[0]
    return Box(south=south, west=west, north=north, east=east)


class _GroupAccumulator:
    """Running state for one group: members plus per-attribute extrema.

    ``stats[attr]`` is ``[count, sum, min, max]`` over the attribute's
    non-null numeric values.  ``dirty`` holds attributes whose min/max may
    be stale after an eviction; ``rescan`` holds attributes that saw a
    non-numeric value and fall back to the reference computation.
    """

    __slots__ = ("members", "stats", "dirty", "rescan", "bbox", "bbox_dirty")

    def __init__(self, attributes: "list[str]") -> None:
        self.members: deque[SensorTuple] = deque()
        self.stats: dict[str, list] = {
            attr: [0, 0.0, None, None] for attr in attributes
        }
        self.dirty: set[str] = set()
        self.rescan: set[str] = set()
        #: (south, west, north, east) over members' representative points.
        self.bbox: "tuple[float, float, float, float] | None" = None
        self.bbox_dirty = False


class AggregationOperator(BlockingOperator):
    """Windowed COUNT/AVG/SUM/MIN/MAX over selected attributes.

    >>> op = AggregationOperator(
    ...     interval=3600.0, attributes=["temperature"], function="AVG")
    >>> per_station = AggregationOperator(
    ...     interval=3600.0, attributes=["temperature"], function="AVG",
    ...     group_by="station")
    """

    cost_per_tuple = 1.2  # caching + vectorised math

    def __init__(
        self,
        interval: float,
        attributes: "list[str]",
        function: str,
        group_by: "str | None" = None,
        window: "float | None" = None,
        name: str = "",
        max_cache: int = 100_000,
        incremental: bool = True,
    ) -> None:
        super().__init__(interval, name or "aggregation")
        fn = function.upper()
        if fn not in AGGREGATION_FUNCTIONS:
            raise DataflowError(
                f"unknown aggregation function {function!r}; "
                f"known: {', '.join(AGGREGATION_FUNCTIONS)}"
            )
        if not attributes:
            raise DataflowError("aggregation requires at least one attribute")
        if group_by is not None and group_by in attributes:
            raise DataflowError(
                f"group_by attribute {group_by!r} cannot also be aggregated"
            )
        if window is not None and window < interval:
            raise DataflowError(
                f"aggregation window ({window}) must cover at least one "
                f"flush interval ({interval})"
            )
        self.function = fn
        self.attributes = list(attributes)
        self.group_by = group_by
        self.window = float(window) if window is not None else None
        self.incremental = incremental
        self._covering = _covering_granularity(self.interval)
        self._groups: dict[object, _GroupAccumulator] = {}
        self.cache = TupleCache(
            max_tuples=max_cache,
            on_evict=self._on_evict if incremental else None,
        )
        #: When set (to a dict) by a sharding adapter, every emitted
        #: group's resolved accumulators are recorded by str(group key) so
        #: a split key's replicas can ship partials to the merge's
        #: combine stage.
        self._partial_log: "dict[str, dict] | None" = None

    def _process(self, tuple_: SensorTuple, port: int) -> list[SensorTuple]:
        # Evict (``_on_evict`` subtracts), append, then fold in: the order
        # the running float sums show.
        self.cache.add(tuple_)
        if self.incremental:
            self._accumulate_run((tuple_,))
        return []

    def _process_batch(self, tuples, port: int) -> list[SensorTuple]:
        cache = self.cache
        if self.incremental and len(tuples) > cache.room:
            # An overflowing run evicts as it appends, from the very sums
            # the kernel adds to: keep each member's evict-then-add order.
            for tuple_ in tuples:
                self._process(tuple_, port)
        else:
            cache.extend(tuples)
            if self.incremental:
                self._accumulate_run(tuples)
        return []

    # -- running accumulators -------------------------------------------------

    def _accumulate_run(self, tuples: "Iterable[SensorTuple]") -> None:
        """Fold a run of tuples, in order, into their groups' accumulators.

        The one place ``stats`` and ``bbox`` grow: ingest, ``restore`` and
        ``adopt_partition`` all replay through here, so a rebuilt
        accumulator is bit-identical to one that saw the tuples arrive.
        """
        groups = self._groups
        group_by = self.group_by
        attributes = self.attributes
        last_location = UNSEEN
        for tuple_ in tuples:
            payload = tuple_.payload
            key = None if group_by is None else payload.get(group_by)
            acc = groups.get(key)
            if acc is None:
                acc = groups[key] = _GroupAccumulator(attributes)
            acc.members.append(tuple_)
            for attr in attributes:
                value = payload.get(attr)
                if type(value) is not float:
                    if value is None:
                        continue
                    if not isinstance(value, (int, float)):
                        # The reference path converts via numpy at flush
                        # time; punt this attribute to it so behaviour
                        # (including conversion errors) is identical.
                        acc.rescan.add(attr)
                        continue
                    value = float(value)
                stats = acc.stats[attr]
                stats[0] += 1
                stats[1] += value
                low = stats[2]
                if low is None or value < low:
                    stats[2] = value
                high = stats[3]
                if high is None or value > high:
                    stats[3] = value
            # A run from one sensor shares its location object.
            location = tuple_.stamp.location
            if location is not last_location:
                point = representative_point(location)
                lat, lon = point.lat, point.lon
                last_location = location
            bbox = acc.bbox
            if bbox is None:
                acc.bbox = (lat, lon, lat, lon)
            elif (lat < bbox[0] or lon < bbox[1]
                    or lat > bbox[2] or lon > bbox[3]):
                acc.bbox = (
                    lat if lat < bbox[0] else bbox[0],
                    lon if lon < bbox[1] else bbox[1],
                    lat if lat > bbox[2] else bbox[2],
                    lon if lon > bbox[3] else bbox[3],
                )

    def _on_evict(self, tuple_: SensorTuple) -> None:
        """Cache eviction hook: retire the tuple from its accumulator.

        Evictions are FIFO overall, hence FIFO within each group, so the
        departing tuple is always its group's oldest member.
        """
        key = None if self.group_by is None else tuple_.get(self.group_by)
        acc = self._groups.get(key)
        if acc is None or not acc.members:
            return
        acc.members.popleft()
        if not acc.members:
            del self._groups[key]
            return
        for attr in self.attributes:
            value = tuple_.get(attr)
            if value is None or not isinstance(value, (int, float)):
                continue
            stats = acc.stats[attr]
            fvalue = float(value)
            stats[0] -= 1
            stats[1] -= fvalue
            # Removing an extremum invalidates min/max; recompute lazily.
            if fvalue == stats[2] or fvalue == stats[3]:
                acc.dirty.add(attr)
        bbox = acc.bbox
        if bbox is not None:
            point = representative_point(tuple_.stamp.location)
            if (point.lat == bbox[0] or point.lon == bbox[1]
                    or point.lat == bbox[2] or point.lon == bbox[3]):
                acc.bbox_dirty = True

    def _window_tuples(self, now: float) -> list[SensorTuple]:
        if self.window is None:
            return self.cache.drain()
        self.cache.prune(before=now - self.window)
        return self.cache.snapshot()

    def _flush(self, now: float) -> list[SensorTuple]:
        if self.incremental:
            return self._flush_incremental(now)
        window = self._window_tuples(now)
        if not window:
            return []
        if self.group_by is None:
            groups = {None: window}
        else:
            groups = {}
            for tuple_ in window:
                groups.setdefault(tuple_.get(self.group_by), []).append(tuple_)
        out: list[SensorTuple] = []
        for seq_offset, (key, members) in enumerate(
            sorted(groups.items(), key=lambda item: str(item[0]))
        ):
            out.append(self._aggregate_group(key, members, now, seq_offset))
        return out

    def _flush_incremental(self, now: float) -> list[SensorTuple]:
        if self.window is not None:
            # Sliding: evictions flow through _on_evict and keep the
            # accumulators current.
            self.cache.prune(before=now - self.window)
        if not self._groups:
            return []
        out = [
            self._emit_group(key, acc, now, seq_offset)
            for seq_offset, (key, acc) in enumerate(
                sorted(self._groups.items(), key=lambda item: str(item[0]))
            )
        ]
        if self.window is None:
            # Tumbling: the window is consumed wholesale.
            self.cache.clear()
            self._groups = {}
        return out

    def _emit_group(
        self, key: object, acc: _GroupAccumulator, now: float, seq_offset: int
    ) -> SensorTuple:
        """Emit one group's tuple from its running accumulators.

        Mirrors :meth:`_aggregate_group` (payload keys, null handling,
        stamp construction) without rescanning members except for
        dirty/rescan slices.
        """
        members = acc.members
        for attr in acc.dirty - acc.rescan:
            values = [
                float(v) for t in members
                if (v := t.get(attr)) is not None
            ]
            stats = acc.stats[attr]
            stats[2] = min(values) if values else None
            stats[3] = max(values) if values else None
        acc.dirty.clear()

        payload: dict[str, object] = {}
        if self.group_by is not None:
            payload[self.group_by] = key
        for attr in self.attributes:
            if attr in acc.rescan:
                # Reference computation for attributes the accumulators
                # could not track (non-numeric values).
                values = [t.get(attr) for t in members if t.get(attr) is not None]
                if self.function == "COUNT":
                    payload[f"count_{attr}"] = len(values)
                    continue
                out_key = f"{self.function.lower()}_{attr}"
                if not values:
                    payload[out_key] = None
                    continue
                array = np.asarray(values, dtype=float)
                if self.function == "AVG":
                    payload[out_key] = float(array.mean())
                elif self.function == "SUM":
                    payload[out_key] = float(array.sum())
                elif self.function == "MIN":
                    payload[out_key] = float(array.min())
                else:
                    payload[out_key] = float(array.max())
                continue
            count, total, low, high = acc.stats[attr]
            if self.function == "COUNT":
                payload[f"count_{attr}"] = count
                continue
            out_key = f"{self.function.lower()}_{attr}"
            if count == 0:
                payload[out_key] = None
            elif self.function == "AVG":
                payload[out_key] = total / count
            elif self.function == "SUM":
                payload[out_key] = total
            elif self.function == "MIN":
                payload[out_key] = low
            else:  # MAX
                payload[out_key] = high

        first = members[0]
        if acc.bbox_dirty or acc.bbox is None:
            location = _bounding_location(list(members))
            point = representative_point(first.stamp.location)
            # Refresh the running box from the rescan.
            if isinstance(location, Box):
                acc.bbox = (location.south, location.west,
                            location.north, location.east)
            else:
                acc.bbox = (point.lat, point.lon, point.lat, point.lon)
            acc.bbox_dirty = False
        else:
            south, west, north, east = acc.bbox
            if south == north and west == east:
                location = representative_point(first.stamp.location)
            else:
                location = Box(south=south, west=west, north=north, east=east)
        out = self._output(payload, first, location, now, seq_offset)
        if self._partial_log is not None:
            # Dirty slices were resolved above, so these are the exact
            # [count, sum, min, max] this emission was computed from.
            self._partial_log[str(key)] = {
                "stats": {
                    attr: list(acc.stats[attr]) for attr in self.attributes
                },
                "first": (first.stamp.time, first.source, first.seq),
                "bbox": acc.bbox,
            }
        if self.lineage is not None:
            self.lineage.record(out, list(members), self.name, now)
        return out

    def extract_partition(self, value: object) -> "list[SensorTuple]":
        """Remove and return one group key's cached window slice.

        The migration donor half: the returned tuples are in arrival
        order, so re-feeding them through :meth:`adopt_partition` on the
        recipient rebuilds byte-identical accumulators (same float
        accumulation order).  The group's accumulator is dropped here.
        """
        if self.group_by is None:
            raise DataflowError(
                f"{self.name}: extract_partition requires group_by"
            )
        moved = [t for t in self.cache if t.get(self.group_by) == value]
        if moved:
            kept = [t for t in self.cache if t.get(self.group_by) != value]
            self.cache.restore(kept, evicted=self.cache.evicted)
        self._groups.pop(value, None)
        return moved

    def adopt_partition(self, tuples: "list[SensorTuple]") -> None:
        """Fold a donor's extracted group slice into this window.

        The caches merge stable-sorted by stamp time (existing tuples
        first on ties) so ``prune``'s head-scan stays correct for sliding
        windows; accumulators replay the moved tuples in their original
        arrival order.  The moved group must not already live here — the
        router guarantees that (one owner per key at any instant).
        """
        moved = list(tuples)
        if not moved:
            return
        merged = sorted(
            list(self.cache) + moved, key=lambda t: t.stamp.time
        )
        self.cache.restore(merged, evicted=self.cache.evicted)
        if self.incremental:
            self._accumulate_run(moved)

    def _aggregate_group(
        self, key: object, window: list[SensorTuple], now: float, seq_offset: int
    ) -> SensorTuple:
        payload: dict[str, object] = {}
        if self.group_by is not None:
            payload[self.group_by] = key
        for attr in self.attributes:
            values = [t.get(attr) for t in window if t.get(attr) is not None]
            if self.function == "COUNT":
                payload[f"count_{attr}"] = len(values)
                continue
            out_key = f"{self.function.lower()}_{attr}"
            if not values:
                payload[out_key] = None
                continue
            array = np.asarray(values, dtype=float)
            if self.function == "AVG":
                payload[out_key] = float(array.mean())
            elif self.function == "SUM":
                payload[out_key] = float(array.sum())
            elif self.function == "MIN":
                payload[out_key] = float(array.min())
            else:  # MAX
                payload[out_key] = float(array.max())

        out = self._output(
            payload, window[0], _bounding_location(window), now, seq_offset
        )
        if self.lineage is not None:
            self.lineage.record(out, window, self.name, now)
        return out

    def _output(
        self, payload: dict, first: SensorTuple, location, now: float,
        seq_offset: int,
    ) -> SensorTuple:
        """The emitted tuple of one group: ``payload`` (owned) stamped at
        the window end, at a temporal granularity covering the interval,
        with the first member's spatial granularity and themes."""
        first_stamp = first.stamp
        gran = first_stamp.temporal_granularity
        covering = self._covering
        stamp = SttStamp.typed(
            now,
            location,
            covering if covering.is_coarser_than(gran) else gran,
            first_stamp.spatial_granularity,
            first_stamp.themes,
        )
        return SensorTuple.from_owned(
            payload,
            stamp,
            f"{self.name}({first.source})",
            self.stats.timer_firings * 1000 + seq_offset,
        )

    def reset(self) -> None:
        super().reset()
        self.cache.clear()
        self._groups = {}

    def checkpoint(self) -> dict:
        state = super().checkpoint()
        state["cache"] = self.cache.snapshot()
        state["evicted"] = self.cache.evicted
        return state

    def restore(self, state: dict) -> None:
        super().restore(state)
        self.cache.restore(state["cache"], evicted=state.get("evicted", 0))
        # Accumulators are derived state: rebuild them from the restored
        # window (the checkpoint format is unchanged from the rescan era).
        self._groups = {}
        if self.incremental:
            self._accumulate_run(self.cache)

    def describe(self) -> str:
        attrs = ",".join(self.attributes)
        suffix = f" by {self.group_by}" if self.group_by else ""
        return f"@{self.interval},{{{attrs}}} {self.function}(s){suffix}"
