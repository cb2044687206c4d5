"""Tuple caches for blocking operators.

A :class:`TupleCache` is the "cache of tuples that are processed every t
time intervals".  It supports the two policies blocking operators need:

- *tumbling*: ``drain()`` empties the cache (aggregation, join);
- *sliding*: ``prune(before)`` evicts by timestamp, so a trigger can check
  a condition over "the last hour" while firing every few minutes.

An optional ``max_tuples`` bound protects node memory; when full, the
oldest tuples are evicted and counted, which the monitor reports.

Operators that maintain **running accumulators** over the cache register an
``on_evict`` callback: it fires once per tuple leaving through ``add`` /
``extend`` overflow or ``prune``, so incremental state can be decremented without
rescanning.  Bulk lifecycle operations (``drain``, ``clear``, ``restore``)
do *not* fire it — the owning operator resets its accumulators itself on
those paths.  Iterating the cache (``for t in cache``) walks the underlying
deque without copying; ``snapshot()`` is the copying variant for callers
that must outlive subsequent mutation.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Sequence

from repro.errors import StreamLoaderError
from repro.streams.tuple import SensorTuple


class TupleCache:
    """Bounded FIFO cache of tuples keyed by arrival order."""

    def __init__(
        self,
        max_tuples: int = 100_000,
        on_evict: "Callable[[SensorTuple], None] | None" = None,
    ) -> None:
        if max_tuples <= 0:
            raise StreamLoaderError(f"max_tuples must be positive: {max_tuples}")
        self._buffer: deque[SensorTuple] = deque()
        self._max = max_tuples
        self.evicted = 0
        #: Per-tuple eviction hook (overflow and prune only).
        self.on_evict = on_evict

    def add(self, tuple_: SensorTuple) -> None:
        if len(self._buffer) >= self._max:
            evicted = self._buffer.popleft()
            self.evicted += 1
            if self.on_evict is not None:
                self.on_evict(evicted)
        self._buffer.append(tuple_)

    @property
    def room(self) -> int:
        """Tuples that fit before the next append evicts."""
        return self._max - len(self._buffer)

    def extend(self, tuples: "Sequence[SensorTuple]") -> None:
        """Append a run of tuples: one bulk append when there is room.

        A run that would overflow ``max_tuples`` goes through :meth:`add`
        member by member instead, so every eviction (and its ``on_evict``)
        happens at the position in the run where repeated ``add`` puts it.
        """
        if len(tuples) <= self.room:
            self._buffer.extend(tuples)
        else:
            for tuple_ in tuples:
                self.add(tuple_)

    def drain(self) -> list[SensorTuple]:
        """Return and clear the whole cache (tumbling windows)."""
        drained = list(self._buffer)
        self._buffer.clear()
        return drained

    def prune(self, before: float) -> int:
        """Evict tuples stamped strictly earlier than ``before``, from the
        head of the cache (arrival order) up to the first tuple that is not.

        Returns the number evicted.  The scan stops at that first retained
        tuple, so it is exact only for time-ordered arrival (a single
        upstream stream).  A straggler that arrived behind a newer tuple
        is not evicted, however old its stamp: it stays in the window
        until every tuple ahead of it has been pruned.
        """
        pruned = 0
        on_evict = self.on_evict
        while self._buffer and self._buffer[0].stamp.time < before:
            evicted = self._buffer.popleft()
            pruned += 1
            if on_evict is not None:
                on_evict(evicted)
        return pruned

    def snapshot(self) -> list[SensorTuple]:
        """Copy of the cache contents (sliding windows, no eviction)."""
        return list(self._buffer)

    def restore(self, tuples: "list[SensorTuple]", evicted: int = 0) -> None:
        """Replace the contents with a previously snapshotted tuple list."""
        self._buffer.clear()
        self._buffer.extend(tuples[-self._max:])
        self.evicted = evicted

    def clear(self) -> None:
        self._buffer.clear()

    def __len__(self) -> int:
        return len(self._buffer)

    def __bool__(self) -> bool:
        return bool(self._buffer)

    def __iter__(self):
        return iter(self._buffer)
