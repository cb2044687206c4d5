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

Flushes are **incremental**: per-group running accumulators (non-null
count, sum, min, max, bounding box) are updated as tuples enter the cache
and as the cache evicts them, so ``_flush`` emits from O(groups) state
instead of rescanning the window.  Min/max (and the bounding box) cannot
be decremented, so an eviction that removes the current extremum marks the
accumulator dirty and the next flush recomputes just that piece from the
group's members — amortized O(1) per tuple.  :meth:`_aggregate_group` is
the rescan-every-flush reference the flush oracle compares against.
Non-numeric and non-finite attribute values can't be accumulated (NaN
would make MIN/MAX depend on arrival order, and a sum that took a NaN or
an infinity in never gets it back out); they flag the group/attribute for
rescan at flush, reproducing the reference semantics (including its
errors) for that slice only.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from operator import itemgetter

import numpy as np

from repro.errors import DataflowError
from repro.schema.infer import AGGREGATION_FUNCTIONS
from repro.streams.base import BlockingOperator
from repro.streams.tuple import UNSEEN, SensorTuple, assemble
from repro.streams.windows import TupleCache
from repro.stt.granularity import temporal_granularity
from repro.stt.spatial import Box, Point, representative_point


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
    non-null finite numeric values.  ``dirty`` holds attributes whose
    min/max may be stale after an eviction; ``rescan`` holds attributes
    that saw a non-numeric or non-finite value and fall back to the
    reference computation.
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

    def refresh_extrema(self) -> None:
        """Recompute the min/max an eviction left stale, from the members."""
        for attr in self.dirty - self.rescan:
            values = [
                float(v) for t in self.members
                if (v := t.get(attr)) is not None
            ]
            stats = self.stats[attr]
            stats[2] = min(values) if values else None
            stats[3] = max(values) if values else None
        self.dirty.clear()

    def refresh_bbox(self):
        """Rescan the members' bounding location and restart the running
        box from it; returns the location."""
        location = _bounding_location(list(self.members))
        if isinstance(location, Box):
            self.bbox = (location.south, location.west,
                         location.north, location.east)
        else:
            self.bbox = (location.lat, location.lon, location.lat, location.lon)
        self.bbox_dirty = False
        return location


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
        self._covering = _covering_granularity(self.interval)
        self._groups: dict[object, _GroupAccumulator] = {}
        self.cache = TupleCache(max_tuples=max_cache, on_evict=self._on_evict)
        #: When set (to a dict) by a sharding adapter, every emitted
        #: group's resolved accumulators are recorded by str(group key) so
        #: a split key's replicas can ship partials to the merge's
        #: combine stage.
        self._partial_log: "dict[str, dict] | None" = None

    def _process(self, tuple_: SensorTuple, port: int) -> list[SensorTuple]:
        # Evict (``_on_evict`` subtracts), append, then fold in: the order
        # the running float sums show.
        self.cache.add(tuple_)
        self._accumulate_run((tuple_,))
        return []

    def _process_batch(self, tuples, port: int) -> list[SensorTuple]:
        cache = self.cache
        if len(tuples) > cache.room:
            # An overflowing run evicts as it appends, from the very sums
            # the kernel adds to: keep each member's evict-then-add order.
            for tuple_ in tuples:
                self._process(tuple_, port)
        else:
            cache.extend(tuples)
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
                if value - value:
                    # NaN or ±inf (``x - x`` is then NaN, which is truthy):
                    # a running sum or extremum cannot hold it; rescan.
                    acc.rescan.add(attr)
                    continue
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
            fvalue = float(value)
            if fvalue - fvalue:
                continue  # non-finite: never accumulated
            stats = acc.stats[attr]
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

    def _flush(self, now: float) -> list[SensorTuple]:
        """Emit every group from its running accumulators, in one pass.

        Mirrors :meth:`_aggregate_group` per group (payload, nulls, stamp,
        label, seq), rescanning members only for dirty/rescan slices.  What
        a group takes from the operator or the flush is resolved once;
        ``str(key)`` once per group, for the sort and the partial log; the
        granule per run of first members sharing a granularity object; the
        label per first-member source.  A clean accumulator allocates no
        set, and a ``Point`` location is its own representative point.
        """
        if self.window is not None:
            # Sliding: evictions flow through _on_evict and keep the
            # accumulators current.
            self.cache.prune(before=now - self.window)
        if not self._groups:
            return []
        ordered = sorted(
            [(str(key), key, acc) for key, acc in self._groups.items()],
            key=itemgetter(0),
        )
        function, group_by, name = self.function, self.group_by, self.name
        columns = [(attr, f"{function.lower()}_{attr}") for attr in self.attributes]
        # The function's index into [count, sum, min, max]; 4 is AVG's quotient.
        slot = ("COUNT", "SUM", "MIN", "MAX", "AVG").index(function)
        covering, partial_log, lineage = self._covering, self._partial_log, self.lineage
        last_gran = UNSEEN
        labels: dict[str, str] = {}
        out: list[SensorTuple] = []
        for seq, (okey, key, acc) in enumerate(
                ordered, self.stats.timer_firings * 1000):
            members = acc.members
            if acc.dirty:
                acc.refresh_extrema()
            payload: dict[str, object] = {} if group_by is None else {group_by: key}
            rescan = acc.rescan
            for attr, out_name in columns:
                if attr in rescan:
                    # Reference computation for attributes the accumulators
                    # could not track (non-numeric values).
                    payload[out_name] = self._scan_value(attr, members)
                    continue
                stats = acc.stats[attr]
                count = stats[0]
                if slot == 0:
                    payload[out_name] = count
                elif count == 0:
                    payload[out_name] = None
                elif slot == 4:
                    payload[out_name] = stats[1] / count
                else:
                    payload[out_name] = stats[slot]
            first = members[0]
            first_stamp = first.stamp
            bbox = acc.bbox
            if acc.bbox_dirty or bbox is None:
                location = acc.refresh_bbox()
            elif bbox[0] == bbox[2] and bbox[1] == bbox[3]:
                location = first_stamp.location
                if type(location) is not Point:
                    location = representative_point(location)
            else:
                location = Box(
                    south=bbox[0], west=bbox[1], north=bbox[2], east=bbox[3])
            gran = first_stamp.temporal_granularity
            if gran is not last_gran:
                granule = covering if covering.is_coarser_than(gran) else gran
                last_gran = gran
            source = first.source
            label = labels.get(source)
            if label is None:
                label = labels[source] = f"{name}({source})"
            emitted = assemble(
                payload, now, location, granule,
                first_stamp.spatial_granularity, first_stamp.themes, label, seq)
            out.append(emitted)
            if partial_log is not None:
                # Dirty slices were resolved above, so these are the exact
                # [count, sum, min, max] this emission was computed from.
                partial_log[okey] = {
                    "stats": {
                        attr: list(acc.stats[attr]) for attr in self.attributes
                    },
                    "first": (first_stamp.time, source, first.seq),
                    "bbox": acc.bbox,
                }
            if lineage is not None:
                lineage.record(emitted, list(members), name, now)
        if self.window is None:
            # Tumbling: the window is consumed wholesale.
            self.cache.clear()
            self._groups = {}
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
        self._accumulate_run(moved)

    def _scan_value(self, attr: str, window: "Iterable[SensorTuple]") -> object:
        """The function over one attribute's non-null values, from scratch."""
        values = [t.get(attr) for t in window if t.get(attr) is not None]
        if self.function == "COUNT":
            return len(values)
        if not values:
            return None
        array = np.asarray(values, dtype=float)
        if self.function == "AVG":
            return float(array.mean())
        if self.function == "SUM":
            return float(array.sum())
        if self.function == "MIN":
            return float(array.min())
        return float(array.max())

    def _aggregate_group(
        self, key: object, window: list[SensorTuple], now: float, seq_offset: int
    ) -> SensorTuple:
        """Reference emission of one group, from its members alone: stamped
        at the window end, at a temporal granularity covering the interval,
        with the first member's spatial granularity and themes."""
        payload: dict[str, object] = {}
        if self.group_by is not None:
            payload[self.group_by] = key
        for attr in self.attributes:
            payload[f"{self.function.lower()}_{attr}"] = self._scan_value(attr, window)
        first = window[0]
        first_stamp = first.stamp
        gran = first_stamp.temporal_granularity
        covering = self._covering
        out = assemble(
            payload,
            now,
            _bounding_location(window),
            covering if covering.is_coarser_than(gran) else gran,
            first_stamp.spatial_granularity,
            first_stamp.themes,
            f"{self.name}({first.source})",
            self.stats.timer_firings * 1000 + seq_offset,
        )
        if self.lineage is not None:
            self.lineage.record(out, window, self.name, now)
        return out

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
        # window; the checkpoint holds only the cache.
        self._groups = {}
        self._accumulate_run(self.cache)

    def describe(self) -> str:
        attrs = ",".join(self.attributes)
        suffix = f" by {self.group_by}" if self.group_by else ""
        return f"@{self.interval},{{{attrs}}} {self.function}(s){suffix}"
