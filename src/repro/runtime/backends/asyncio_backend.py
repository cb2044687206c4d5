"""The asyncio backend: wall-clock execution with the sim as its oracle.

Every :class:`~repro.runtime.process.OperatorProcess` becomes an asyncio
task draining a bounded mailbox — the only queue on the data path.  A
network delivery is the simulator's own clock event, so
``NetworkSimulator._deliver`` (node-down drop, stats, tracer) runs
unchanged at the message's logical instant and hands the payload to the
target process's mailbox.  A full mailbox suspends the posting coroutine,
so backpressure propagates upstream instead of dropping tuples.  Node
death cancels the hosted tasks; the heartbeat detector, checkpoint
restore and shard-merge punctuation all run unchanged on top.

**Epoch-barrier execution.**  Timers and message deliveries keep their
*logical* instants: the clock is the same deadline heap as the simulator
(:class:`AsyncClock` inherits :class:`~repro.network.simclock.SimClock`),
and time advances one deadline ("epoch") at a time —

1. optionally sleep on the wall clock until the epoch is due
   (``time_scale`` virtual seconds per wall second; ``None`` free-runs),
2. fire every callback scheduled at exactly that instant — timers and
   deliveries alike — in the simulator's (time, sequence) order,
3. hand over what those callbacks submitted: one item each for distinct
   idle processes (parked, or the one running the epoch) needs no mailbox
   and no wake, so whoever ran the epoch handles them in place, in order;
   a same-host burst is posted up to the first full mailbox, one task
   wake per process (the driver posts the rest, waiting for room),
4. **barrier**: the next epoch waits until nothing is in flight; the host
   task that empties it runs that epoch itself (the *relay*), so a woken
   process costs one loop turn and mail handled in place none — the
   driver (``run_until``) wakes only to pace, wait for room, reap, stop
   or raise.  An epoch that leaves nothing posted skips 4 and never
   touches the event loop.

The processes a same-host burst woke run concurrently in whatever order
the event loop schedules them — that is the genuinely asynchronous (and
nondeterministic) part.  Across epochs, ``clock.now`` reports logical
deadlines, so emission stamps, window contents, flush instants, retry
backoff times and QoS drop decisions are identical to the simulator's.
The parity suite exploits exactly this split: sink *multisets* match the
sim byte for byte while sink *order* may not.

Known caveat (DESIGN.md §8): deliveries fire in sequence order with
same-instant timers, but a *process* handles a delivered message only
after all of that instant's callbacks ran (the simulator handles it
inline), so a flush timer at the same float instant as a delivery runs
before the process sees the message.  No shipped scenario creates that
shape; the parity suite would catch one that did.
"""

from __future__ import annotations

import asyncio
import gc
import heapq
import time as _wall
import weakref
from collections import deque

from repro.errors import SimulationError
from repro.network.netsim import NetworkSimulator
from repro.network.qos import QosPolicy
from repro.network.simclock import SimClock
from repro.network.topology import Topology
from repro.runtime.backends.base import ExecutionBackend

#: AsyncBackend instances not yet closed — the test plane's flake guard
#: sweeps this set to fail any test that leaks an event loop or tasks.
_LIVE_BACKENDS: "weakref.WeakSet[AsyncBackend]" = weakref.WeakSet()
#: Their loops' exception-handler reports, as text; the guard fails on them.
_LOOP_ERRORS: "list[str]" = []


def live_backends() -> "list[AsyncBackend]":
    """Unclosed AsyncBackend instances (for the pytest flake guard)."""
    return [backend for backend in _LIVE_BACKENDS if not backend.closed]


def take_loop_errors() -> "list[str]":
    """Drain the reports; collect first, as a dead task reports when freed."""
    if _LIVE_BACKENDS:
        gc.collect()
    errors, _LOOP_ERRORS[:] = _LOOP_ERRORS[:], []
    return errors


def _record_loop_error(loop, context: dict) -> None:
    _LOOP_ERRORS.append(
        f"{context.get('message')} ({context.get('exception')!r})")
    loop.default_exception_handler(context)


class AsyncClock(SimClock):
    """The simulator's deadline heap, fired by the backend's epoch driver.

    ``schedule`` / ``schedule_at`` / ``schedule_periodic`` / ``cancel``
    are inherited unchanged — including the (time, insertion-sequence)
    tie-break — which is what keeps same-instant timer ordering identical
    to the simulator's.  ``now`` reports the logical time of the current
    epoch, so stamps and window ends are deterministic even though the
    callbacks run against the wall clock.  ``run_until`` delegates to the
    owning backend, so ``stack.clock.run_until(...)`` transparently
    drives the event loop.
    """

    def __init__(self, start: float = 0.0) -> None:
        super().__init__(start)
        self._backend: "AsyncBackend | None" = None
        self._wall_epoch = _wall.monotonic()

    @property
    def wall_now(self) -> float:
        """Wall-clock seconds since this clock was created (monotonic).

        The tracer binds this as its wall source, so spans carry real
        timestamps next to their virtual ones (DESIGN.md §8).
        """
        return _wall.monotonic() - self._wall_epoch

    def run_until(self, time: float, max_events: int = 10_000_000) -> int:
        if self._backend is None:
            raise SimulationError("AsyncClock is not attached to a backend")
        return self._backend.run_until(time, max_events=max_events)

    def run(self, max_events: int = 10_000_000) -> int:
        raise SimulationError(
            "AsyncClock cannot free-run synchronously; use run_until"
        )

    def step(self) -> bool:
        raise SimulationError(
            "AsyncClock cannot step synchronously; use run_until"
        )

    # -- epoch-driver hooks (backend-internal) ------------------------------

    def _next_deadline(self) -> "float | None":
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def _run_epoch(self, deadline: float, budget: int) -> int:
        """Run every event due at exactly ``deadline`` in sequence order.

        Zero-delay events scheduled *by* those callbacks land at the same
        instant and are included (matching ``SimClock.run_until``).
        """
        heap = self._heap
        heappop = heapq.heappop
        executed = 0
        self._now = deadline
        while heap and heap[0][0] <= deadline:
            _, _, event = heappop(heap)
            if event.cancelled:
                self._cancelled -= 1
                continue
            event.done = True
            event.callback(*event.args)
            executed += 1
            if executed >= budget:
                raise SimulationError(
                    f"epoch at t={deadline} exceeded {budget} events; "
                    f"likely a zero-delay rescheduling loop"
                )
        return executed

    def _finish(self, time: float) -> None:
        self._now = time


class AsyncTransport(NetworkSimulator):
    """The NetworkSimulator protocol in front of the backend's mailboxes.

    Everything is inherited from the simulator — routing, QoS admission,
    link accounting, traffic stats, tracing, every drop reason, and the
    delivery itself: a message is a clock event that fires ``_deliver``
    at its logical instant.  The only difference sits behind
    ``on_delivery``: a hosted process's ``receive`` submits to its
    mailbox instead of running inline.  Processes, the broker and the
    monitor run against this object unmodified.
    """

    backend_name = "async"

    def __init__(
        self,
        backend: "AsyncBackend",
        topology: "Topology | None" = None,
        clock: "AsyncClock | None" = None,
        default_qos: "QosPolicy | None" = None,
    ) -> None:
        super().__init__(topology=topology, clock=clock, default_qos=default_qos)
        self._backend = backend

    def backend_health(self) -> dict:
        """Queue health for ``Monitor.report()`` (async backend only)."""
        backend = self._backend
        return {
            "backpressure_stalls": backend.backpressure_stalls,
            "mailbox_high_water": {
                host.process.process_id: host.high_water
                for host in backend._hosts.values()
            },
        }

    # -- process-host hooks (duck-typed by OperatorProcess) ------------------

    def process_moved(self, process) -> None:
        """A hosted process migrated; make sure it has a live task again."""
        self._backend._ensure_hosted(process)

    def unhost_process(self, process) -> None:
        """A process stopped; cancel its task and restore its methods."""
        self._backend._unhost(process)

    # -- fault injection -----------------------------------------------------

    def kill_node(self, node_id: str) -> None:
        """Fail the node *and* cancel the tasks of processes hosted on it.

        Messages still in flight reach ``_deliver`` at their instant and
        are dropped there with the simulator's "target node ... is down"
        reason, so the broker's retry/dead-letter path behaves
        identically on both backends.
        """
        super().kill_node(node_id)
        self._backend._cancel_node_hosts(node_id)

    def revive_node(self, node_id: str) -> None:
        super().revive_node(node_id)
        self._backend._restart_node_hosts(node_id)


class _ProcessHost:
    """One hosted process: a bounded mailbox drained by one asyncio task."""

    __slots__ = ("backend", "process", "inbox", "parked", "room", "task",
                 "alive", "high_water", "receive")

    def __init__(self, backend: "AsyncBackend", process) -> None:
        self.backend = backend
        self.process = process
        self.inbox: deque = deque()
        #: The future the task sleeps on while its mailbox is empty.
        self.parked: "asyncio.Future | None" = None
        #: Futures of posters waiting for room in a full mailbox.
        self.room: "deque[asyncio.Future]" = deque()
        self.task: "asyncio.Task | None" = None
        self.alive = False
        #: Deepest the mailbox has been (``Monitor.report()``).
        self.high_water = 0
        # The original bound method; the instance attribute installed by
        # host_process shadows it so routes and wiring closures (which
        # look the method up per message) submit to the mailbox instead.
        self.receive = process.receive

    def grant_room(self) -> None:
        """Wake the longest-waiting poster (skipping cancelled ones)."""
        room = self.room
        while room:
            waiter = room.popleft()
            if not waiter.done():
                waiter.set_result(None)
                return

    def submit(self, payload, port: int = 0) -> None:
        if self.alive:  # else its node died; the simulator loses these too
            self.backend._staged_mail.append((self, (payload, port)))


class AsyncBackend(ExecutionBackend):
    """Wall-clock asyncio execution (see the module docstring).

    Args:
        topology: network topology (defaults to an empty one).
        default_qos: transport-wide QoS policy.
        time_scale: virtual seconds per wall second.  ``None`` (default)
            free-runs — epochs fire as fast as quiescence allows; a
            positive value paces each epoch against the wall clock
            (``time_scale=60`` runs a virtual minute per real second).
        mailbox_capacity: bound of each hosted process's mailbox (>= 1).
        max_wall: optional wall-clock budget (seconds) per ``run_until``
            call; exceeding it raises instead of hanging — the test
            plane's no-hang guarantee.
    """

    name = "async"

    def __init__(
        self,
        topology: "Topology | None" = None,
        default_qos: "QosPolicy | None" = None,
        *,
        time_scale: "float | None" = None,
        mailbox_capacity: int = 256,
        max_wall: "float | None" = None,
    ) -> None:
        if time_scale is not None and time_scale <= 0:
            time_scale = None  # 0 / negative: free-run (the CLI default)
        if mailbox_capacity < 1:
            raise SimulationError(
                f"mailbox_capacity must be at least 1, got {mailbox_capacity}"
            )
        self.time_scale = time_scale
        self.mailbox_capacity = mailbox_capacity
        self.max_wall = max_wall
        self.clock = AsyncClock()
        self.clock._backend = self
        self.transport = AsyncTransport(
            self, topology=topology, clock=self.clock, default_qos=default_qos
        )
        self.topology = self.transport.topology
        self.closed = False
        #: Times a poster found its target mailbox full and had to wait —
        #: the observable proof that backpressure stalls instead of drops.
        self.backpressure_stalls = 0
        self._loop = asyncio.new_event_loop()
        self._loop.set_exception_handler(_record_loop_error)
        self._hosts: dict[int, _ProcessHost] = {}
        #: Mailbox submissions made by shadowed ``receive`` calls inside a
        #: synchronous dispatch (an epoch's callbacks, or a process
        #: handling a message); whoever ran that dispatch posts them.
        self._staged_mail: list = []
        #: Mail an epoch could not post, and its room waiter: the driver's.
        self._tail: "tuple | None" = None
        #: Messages posted to a mailbox and not yet fully handled.
        self._inflight = 0
        #: The epoch barrier; the host that empties ``_inflight`` relays it.
        self._quiet: "asyncio.Future | None" = None
        #: The first error of a relayed epoch or a hosted process.
        self._failure: "Exception | None" = None
        self._reap: "list[asyncio.Task]" = []
        self._wall_base: "float | None" = None
        self._logical_base = 0.0
        # The current run_until's horizon, event budget, events and start.
        self._until = self._wall_start = 0.0
        self._budget = self._executed = 0
        _LIVE_BACKENDS.add(self)

    # -- process hosting -----------------------------------------------------

    def host_process(self, process) -> None:
        """Give ``process`` a mailbox and an asyncio task.

        ``process.receive`` is shadowed by an instance attribute that
        submits to the mailbox; the task dispatches via the original
        bound method, so liveness checks, work accounting and forwarding
        are untouched.
        """
        key = id(process)
        if key in self._hosts:
            return
        host = _ProcessHost(self, process)
        self._hosts[key] = host
        process.receive = host.submit
        self._start_host(host)

    def _start_host(self, host: _ProcessHost) -> None:
        host.alive = True
        host.parked = None  # a killed task leaves its cancelled future here
        host.task = self._loop.create_task(self._host_loop(host))

    def _ensure_hosted(self, process) -> None:
        host = self._hosts.get(id(process))
        if host is not None and not host.alive:
            self._start_host(host)

    def _unhost(self, process) -> None:
        host = self._hosts.pop(id(process), None)
        if host is None:
            return
        self._kill_host(host)
        process.__dict__.pop("receive", None)  # unshadow the method

    def _kill_host(self, host: _ProcessHost) -> None:
        host.alive = False
        if host.task is not None:
            host.task.cancel()
            self._reap.append(host.task)
            host.task = None
        # Mailbox tuples die with the task: they were delivered but not
        # yet processed — the same post-delivery loss the checkpoint
        # recovery bound documents for the simulator.
        lost = len(host.inbox)
        host.inbox.clear()
        self._handled(lost)
        # Posters waiting for room wake, see the host dead and skip.
        while host.room:
            host.grant_room()

    def _cancel_node_hosts(self, node_id: str) -> None:
        for host in self._hosts.values():
            if host.process.node_id == node_id and host.alive:
                self._kill_host(host)

    def _restart_node_hosts(self, node_id: str) -> None:
        for host in self._hosts.values():
            if host.process.node_id == node_id and not host.alive:
                self._start_host(host)

    # -- mailboxes / quiescence accounting -----------------------------------

    def _handled(self, count: int, me: "asyncio.Task | None" = None) -> None:
        """``count`` posted messages left flight; at zero, relay the barrier:
        run the next epochs here, in ``me``, with it detached (a ``_kill_host``
        in them must not release it); wake the driver only for its jobs."""
        self._inflight -= count
        quiet = self._quiet
        if self._inflight or quiet is None or quiet.cancelled():
            return  # (cancelled: the driver ran out of wall budget)
        self._quiet = None
        try:
            self._epochs(me)
        except Exception as exc:
            self._failure = self._failure or exc
        if self._inflight and not (self._tail or self._reap or self._failure):
            self._quiet = quiet  # the last host to finish relays again
        else:
            quiet.set_result(None)

    def _post(self, staged: "list | None" = None) -> "tuple | None":
        """Post ``staged`` (default: swap out ``_staged_mail``) in order up
        to the first full mailbox; return the unposted tail and a waiter
        queued there for room now, however late the caller awaits it.  The
        caller owns both: a process that took them could wait on itself."""
        if staged is None:
            staged, self._staged_mail = self._staged_mail, []
        capacity = self.mailbox_capacity
        for i, (host, item) in enumerate(staged):
            if not host.alive:
                continue  # died since the submit; see _ProcessHost.submit
            inbox = host.inbox
            if len(inbox) >= capacity:
                self.backpressure_stalls += 1
                host.room.append(waiter := self._loop.create_future())
                return staged[i:], waiter
            inbox.append(item)
            self._inflight += 1
            if len(inbox) > host.high_water:
                host.high_water = len(inbox)
            parked = host.parked
            if parked is not None:  # one wake, however many posts follow
                host.parked = None
                parked.set_result(None)
        return None

    async def _post_tail(self, tail: list, waiter: asyncio.Future) -> None:
        """Post ``tail``, waiting for room wherever a mailbox is full (a
        mailbox still full when the waiter fires gets a new one from
        ``_post``)."""
        while tail:
            await waiter
            tail, waiter = self._post(tail) or (None, None)

    async def _host_loop(self, host: _ProcessHost) -> None:
        inbox = host.inbox
        room = host.room
        me = host.task
        while True:
            while inbox:
                payload, port = inbox.popleft()
                if room:
                    host.grant_room()
                try:
                    # Forwarding may submit to other mailboxes; that mail
                    # is posted (real backpressure) before this message
                    # counts as handled.
                    host.receive(payload, port)
                    if self._staged_mail:
                        tail = self._post()
                        if tail:
                            await self._post_tail(*tail)
                except Exception as exc:  # the sim raises it from run_until
                    self._failure = self._failure or exc
                finally:
                    self._handled(1, me)
                if host.task is not me:
                    return  # killed (and maybe revived) in an epoch it relayed
            host.parked = parked = self._loop.create_future()
            await parked

    # -- the epoch driver ----------------------------------------------------

    def _epochs(self, me: "asyncio.Task | None" = None) -> "float | None":
        """The driver's (``me`` None) and the relay's (task ``me``) epoch
        loop: run epochs until mail is in flight or ``_advance`` has a job;
        return the wall seconds until the next epoch is due (0: not waiting),
        or None past the horizon.  A post's unposted tail is the driver's."""
        clock = self.clock
        while not (self._inflight or self._reap or self._failure):
            if (self.max_wall is not None
                    and self._loop.time() - self._wall_start > self.max_wall):
                raise asyncio.TimeoutError
            deadline = clock._next_deadline()
            if deadline is None or deadline > self._until:
                return None
            if (self.time_scale is not None
                    and (delay := self._pace_delay(deadline)) > 0):
                return delay
            self._executed += clock._run_epoch(
                deadline, self._budget - self._executed)
            if staged := self._staged_mail:
                hosts = set()
                for host, _ in staged:
                    if (host in hosts or not host.alive
                            or host.parked is None and host.task is not me):
                        break  # a same-host burst, or a host not idle
                    hosts.add(host)
                else:  # one item per idle host: handle them here, no wake
                    self._staged_mail = []
                    for host, (payload, port) in staged:
                        if host.alive:  # else an earlier handler killed it
                            host.high_water = host.high_water or 1
                            try:
                                host.receive(payload, port)
                            except Exception as exc:  # as in _host_loop
                                self._failure = self._failure or exc
                if self._staged_mail:
                    self._tail = self._post()
        return 0.0

    def _pace_delay(self, deadline: float) -> float:
        """Wall seconds until ``deadline`` is due under ``time_scale``."""
        if self._wall_base is None:
            self._wall_base = self._loop.time()
            self._logical_base = deadline
        target = (self._wall_base
                  + (deadline - self._logical_base) / self.time_scale)
        return target - self._loop.time()

    async def _reap_cancelled(self) -> None:
        tasks, self._reap = self._reap, []
        for task in tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass

    async def _advance(self, until: float, max_events: int) -> int:
        loop = self._loop
        self._until, self._budget, self._executed = until, max_events, 0
        self._wall_start = loop.time()
        while True:
            if self._reap:
                await self._reap_cancelled()
            if self._tail:
                tail, self._tail = self._tail, None
                await self._post_tail(*tail)
            if self._inflight:
                self._quiet = quiet = loop.create_future()
                await quiet
                continue
            if self._failure is not None:
                failure, self._failure = self._failure, None
                raise failure
            if (delay := self._epochs()) is None:
                break
            if delay:
                await asyncio.sleep(delay)
        self.clock._finish(until)
        return self._executed

    def run_until(self, time: float, max_events: int = 10_000_000) -> int:
        if self.closed:
            raise SimulationError("backend is closed")
        if time < self.clock.now:
            raise SimulationError(
                f"cannot run backwards to {time} from {self.clock.now}"
            )
        # wait_for bounds a driver that never resumes (a wedged barrier);
        # _advance's own check bounds one that never yields to the loop.
        driver = asyncio.wait_for(
            self._advance(time, max_events), self.max_wall
        )
        try:
            return self._loop.run_until_complete(driver)
        except asyncio.TimeoutError:
            raise SimulationError(
                f"async run_until({time}) exceeded the {self.max_wall}s "
                f"wall budget at t={self.clock.now}"
            ) from None

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        """Cancel every task and close the event loop.  Idempotent."""
        if self.closed:
            return
        pending = asyncio.all_tasks(self._loop)  # the unfinished ones
        for task in pending:
            task.cancel()
        if pending:
            self._loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        self._loop.close()
        for host in self._hosts.values():
            host.process.__dict__.pop("receive", None)  # as _unhost does
        self._hosts.clear()
        self._staged_mail.clear()
        self.closed = True
