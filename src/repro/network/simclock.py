"""Discrete-event simulation clock.

A classic event-heap simulator: callbacks scheduled at virtual times, run in
deterministic order (time, then insertion sequence).  The whole library is
driven by one clock instance — sensor emissions, blocking-operator window
flushes, message deliveries, monitor sampling, and SCN control decisions are
all just scheduled events.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SimulationError


@dataclass(order=True, slots=True)
class ScheduledEvent:
    """One pending event in the heap (orderable by time, then sequence)."""

    time: float
    sequence: int
    callback: Callable = field(compare=False)
    #: Positional arguments the run loop passes to ``callback`` — a
    #: scheduler of bound methods needs no closure per event.
    args: tuple = field(default=(), compare=False)
    cancelled: bool = field(default=False, compare=False)
    #: Set when the event is popped for execution — a late cancel() (e.g. a
    #: periodic's cancel fired from inside its own callback) must not count
    #: toward the owner's cancelled-entry tally, the entry already left the heap.
    done: bool = field(default=False, compare=False)
    owner: "SimClock | None" = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Cancel the event; it is skipped when its time arrives."""
        if self.cancelled or self.done:
            return
        self.cancelled = True
        if self.owner is not None:
            self.owner._note_cancelled()


class SimClock:
    """Deterministic discrete-event clock.

    >>> clock = SimClock()
    >>> fired = []
    >>> _ = clock.schedule(5.0, lambda: fired.append(clock.now))
    >>> _ = clock.run_until(10.0)
    >>> fired
    [5.0]
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = start
        #: Heap of (time, sequence, event) — a tuple head keeps heap
        #: sifting on C-level comparisons instead of ScheduledEvent.__lt__.
        self._heap: list[tuple[float, int, ScheduledEvent]] = []
        self._sequence = itertools.count()
        self._running = False
        #: Cancelled entries still sitting in the heap (lazy deletion).
        self._cancelled = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of scheduled (non-cancelled) events.

        O(1): the clock tracks how many heap entries are lazily-deleted
        tombstones rather than scanning the heap.
        """
        return len(self._heap) - self._cancelled

    def _note_cancelled(self) -> None:
        """A live heap entry became a tombstone; compact if they dominate.

        Compaction is in place (``self._heap[:] = ...``) because ``run`` /
        ``run_until`` hold a local reference to the heap list while the
        clock is running — rebinding would desynchronize them.
        """
        self._cancelled += 1
        if self._cancelled * 2 > len(self._heap):
            self._heap[:] = [
                entry for entry in self._heap if not entry[2].cancelled
            ]
            heapq.heapify(self._heap)
            self._cancelled = 0

    def schedule(self, delay: float, callback: Callable, *args) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        # Inlined schedule_at (delay >= 0 implies time >= now): one less
        # frame on the simulator's hottest call.
        time = self._now + delay
        sequence = next(self._sequence)
        event = ScheduledEvent(time, sequence, callback, args, owner=self)
        heapq.heappush(self._heap, (time, sequence, event))
        return event

    def schedule_at(self, time: float, callback: Callable, *args) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        sequence = next(self._sequence)
        event = ScheduledEvent(time, sequence, callback, args, owner=self)
        heapq.heappush(self._heap, (time, sequence, event))
        return event

    def schedule_periodic(
        self,
        interval: float,
        callback: Callable,
        start_delay: "float | None" = None,
    ) -> Callable[[], None]:
        """Run ``callback`` every ``interval`` seconds until cancelled.

        Returns a zero-argument cancel function.  The first firing happens
        after ``start_delay`` (default: one full interval).
        """
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive: {interval}")
        state = {"event": None, "stopped": False}

        def fire() -> None:
            if state["stopped"]:
                return
            callback()
            if not state["stopped"]:
                state["event"] = self.schedule(interval, fire)

        first_delay = interval if start_delay is None else start_delay
        state["event"] = self.schedule(first_delay, fire)

        def cancel() -> None:
            state["stopped"] = True
            if state["event"] is not None:
                state["event"].cancel()

        return cancel

    def step(self) -> bool:
        """Run the next event; returns False when the heap is empty."""
        while self._heap:
            event_time, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                self._cancelled -= 1
                continue
            event.done = True
            self._now = event_time
            event.callback(*event.args)
            return True
        return False

    def run_until(self, time: float, max_events: int = 10_000_000) -> int:
        """Run all events scheduled strictly before/at ``time``.

        Advances the clock to exactly ``time`` afterwards.  Returns the
        number of events executed.  ``max_events`` guards against runaway
        self-rescheduling loops.
        """
        if time < self._now:
            raise SimulationError(f"cannot run backwards to {time} from {self._now}")
        if self._running:
            raise SimulationError("clock is already running (no re-entrant runs)")
        self._running = True
        executed = 0
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap:
                event_time = heap[0][0]
                if event_time > time:
                    break
                _, _, event = heappop(heap)
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                event.done = True
                self._now = event_time
                event.callback(*event.args)
                executed += 1
                if executed >= max_events:
                    raise SimulationError(
                        f"run_until({time}) exceeded {max_events} events; "
                        f"likely a zero-delay rescheduling loop"
                    )
            self._now = time
        finally:
            self._running = False
        return executed

    def run(self, max_events: int = 10_000_000) -> int:
        """Run until the event heap drains.  Returns events executed."""
        if self._running:
            raise SimulationError("clock is already running (no re-entrant runs)")
        self._running = True
        executed = 0
        heap = self._heap
        heappop = heapq.heappop
        try:
            # step() inlined: one less Python frame per executed event.
            while heap:
                event_time, _, event = heappop(heap)
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                event.done = True
                self._now = event_time
                event.callback(*event.args)
                executed += 1
                if executed >= max_events:
                    raise SimulationError(
                        f"run() exceeded {max_events} events; "
                        f"likely an unbounded periodic schedule"
                    )
        finally:
            self._running = False
        return executed
