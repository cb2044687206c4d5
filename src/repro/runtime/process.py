"""Operator processes: a runtime operator hosted on a network node.

"For the execution, the sources are bound to specific sensors handled by
the network nodes, and operations located on the machines that, depending
on workload, apply the logic specified in the conceptual dataflow."

An :class:`OperatorProcess` wraps one runtime operator, receives tuples
(delivered by the pub-sub layer or by upstream processes over the
simulated network), charges the hosting node for the work, and forwards
emissions along its routes.  Moving a process to another node is a single
re-registration — the forwarding layer picks up the new location on the
next message.

Fault tolerance hooks:

- **heartbeats** — once armed (the monitor does this in ``watch``), the
  process emits a liveness beat on the sim clock every
  ``heartbeat_interval`` seconds; a dead node emits nothing, which is how
  the monitor's failure detector notices it.
- **checkpoints** — once armed (the executor does this for blocking
  operators), the operator's state is snapshotted every
  ``checkpoint_interval`` seconds; after a node death the executor
  re-places the process and restores the last snapshot, bounding loss to
  the tuples absorbed since it was taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import DeploymentError
from repro.network.netsim import NetworkSimulator
from repro.network.qos import QosPolicy
from repro.obs.lineage import tuple_key
from repro.runtime.sharding import ShardGroup
from repro.runtime.stats import RateEstimator
from repro.streams.base import Operator
from repro.streams.tuple import (
    SensorTuple,
    TupleBatch,
    message_members,
    message_size_bytes,
    message_stamp_span,
)


@dataclass(frozen=True)
class Route:
    """One downstream destination of a process's output.

    ``target`` is usually a single process; for a sharded consumer it is
    the whole :class:`~repro.runtime.sharding.ShardGroup`, and the
    forwarding layer resolves the owning member per tuple by key hash.
    """

    target: "OperatorProcess | ShardGroup"
    port: int = 0
    qos: "QosPolicy | None" = None

    def deliver(self, payload: "SensorTuple | TupleBatch") -> None:
        """Hand a delivered message to the (single-process) target.

        ``receive`` is looked up at delivery time: the asyncio backend
        shadows it with a mailbox submit after routes are wired.
        """
        self.target.receive(payload, self.port)


class OperatorProcess:
    """A deployed operator (or sink) running on a node.

    >>> process = OperatorProcess("filter-1", operator, "edge-0", netsim)
    ... # doctest: +SKIP
    """

    def __init__(
        self,
        process_id: str,
        operator: Operator,
        node_id: str,
        netsim: NetworkSimulator,
        obs: "object | None" = None,
    ) -> None:
        self.process_id = process_id
        self.operator = operator
        self.node_id = node_id
        self.netsim = netsim
        #: Observability bundle (``repro.obs.Observability``); spans are
        #: recorded only for tuples already carrying a trace context.
        self.obs = obs
        #: Latency-plane probe (``repro.obs.latency.ProcessProbe``);
        #: installed by the executor only when the plane exists, so the
        #: per-tuple cost of an absent SLO plane is one ``is None`` check
        #: inside the existing ``obs is not None`` branch.
        self._probe = None
        self.routes: list[Route] = []
        self.rate = RateEstimator()
        #: Deploy-time demand estimate (cost-units/s) the placement was
        #: booked with.  Floors the demand this process re-registers when
        #: it moves: the live rate estimate reads 0.0 until the monitor's
        #: first sample, and booking 0.0 on the new node double-books its
        #: capacity for every later placement decision.
        self.placement_demand = 0.0
        self._timer_cancel: "Callable[[], None] | None" = None
        self._started = False
        self._stopped = False
        self._heartbeat_sink: "Callable[[str, str, float], None] | None" = None
        self._heartbeat_interval: "float | None" = None
        self._heartbeat_cancel: "Callable[[], None] | None" = None
        self._checkpoint_interval: "float | None" = None
        self._checkpoint_cancel: "Callable[[], None] | None" = None
        #: (virtual time, operator state) of the last snapshot, if any.
        self.last_checkpoint: "tuple[float, dict] | None" = None
        self.restores = 0
        #: Hosting node object, kept in step with ``node_id`` by
        #: :meth:`move_to` — the data path checks liveness and charges
        #: work per tuple, and a topology lookup per reading is pure
        #: overhead.  Node objects are stable: fail/recover mutate them
        #: in place.
        self._node = netsim.topology.node(node_id)
        self._node.register_process(process_id)

    # -- wiring ------------------------------------------------------------

    def add_route(self, target: "OperatorProcess | ShardGroup", port: int = 0,
                  qos: "QosPolicy | None" = None) -> None:
        self.routes.append(Route(target=target, port=port, qos=qos))

    def start(self) -> None:
        """Arm the flush timer for blocking operators."""
        if self._started:
            raise DeploymentError(f"process {self.process_id!r} already started")
        self._started = True
        self._stopped = False
        if self.operator.is_blocking:
            assert self.operator.interval is not None
            self._timer_cancel = self.netsim.clock.schedule_periodic(
                self.operator.interval, self._fire_timer
            )
        if self._heartbeat_interval is not None and self._heartbeat_cancel is None:
            self._arm_heartbeats()
        if self._checkpoint_interval is not None and self._checkpoint_cancel is None:
            self._arm_checkpoints()

    def stop(self) -> None:
        """Stop timers and release the node registration."""
        if self._timer_cancel is not None:
            self._timer_cancel()
            self._timer_cancel = None
        if self._heartbeat_cancel is not None:
            self._heartbeat_cancel()
            self._heartbeat_cancel = None
        if self._checkpoint_cancel is not None:
            self._checkpoint_cancel()
            self._checkpoint_cancel = None
        if self.process_id in self._node.processes:
            self._node.unregister_process(self.process_id)
        self._started = False
        self._stopped = True
        unhost = getattr(self.netsim, "unhost_process", None)
        if unhost is not None:
            unhost(self)

    def move_to(self, node_id: str) -> None:
        """Migrate this process to another node (SCN decision applied)."""
        if node_id == self.node_id:
            return
        old = self.netsim.topology.node(self.node_id)
        new = self.netsim.topology.node(node_id)
        demand = max(
            self.rate.rate * self.operator.cost_per_tuple,
            self.placement_demand,
        )
        if self.process_id in old.processes:
            old.unregister_process(self.process_id)
        new.register_process(self.process_id, demand)
        self.node_id = node_id
        self._node = new
        moved = getattr(self.netsim, "process_moved", None)
        if moved is not None:
            moved(self)

    # -- fault tolerance ---------------------------------------------------------

    def enable_heartbeats(
        self, sink: Callable[[str, str, float], None], interval: float
    ) -> None:
        """Emit liveness to ``sink(process_id, node_id, now)`` periodically.

        Armed immediately when the process is already started, otherwise on
        :meth:`start`.  A process on a dead node stays silent — that
        silence *is* the failure signal.
        """
        self._heartbeat_sink = sink
        self._heartbeat_interval = float(interval)
        if self._started and self._heartbeat_cancel is None:
            self._arm_heartbeats()

    def _arm_heartbeats(self) -> None:
        assert self._heartbeat_interval is not None
        self._heartbeat_cancel = self.netsim.clock.schedule_periodic(
            self._heartbeat_interval, self._emit_heartbeat, start_delay=0.0
        )

    def _emit_heartbeat(self) -> None:
        if self._stopped or self._heartbeat_sink is None:
            return
        if not self._node.up:
            return  # a dead node cannot prove liveness
        self._heartbeat_sink(self.process_id, self.node_id, self.netsim.clock.now)

    def enable_checkpoints(self, interval: float) -> None:
        """Snapshot the operator's state every ``interval`` seconds."""
        self._checkpoint_interval = float(interval)
        if self._started and self._checkpoint_cancel is None:
            self._arm_checkpoints()

    def _arm_checkpoints(self) -> None:
        assert self._checkpoint_interval is not None
        # An immediate first snapshot (start_delay=0) guarantees recovery
        # always has *something* to restore, even right after deployment.
        self._checkpoint_cancel = self.netsim.clock.schedule_periodic(
            self._checkpoint_interval, self.checkpoint_now, start_delay=0.0
        )

    def checkpoint_now(self) -> "tuple[float, dict] | None":
        """Take a snapshot immediately (no-op while the node is down)."""
        if self._stopped:
            return None
        if not self._node.up:
            return None  # a dead node cannot persist state
        self.last_checkpoint = (self.netsim.clock.now, self.operator.checkpoint())
        return self.last_checkpoint

    def restore_last_checkpoint(self) -> bool:
        """Reinstate the last snapshot into the operator, if one exists.

        Returns whether a restore happened.  Called by the executor after
        re-placing this process off a dead node; tuples absorbed after the
        snapshot are lost (the documented at-most-once recovery bound).
        """
        if self.last_checkpoint is None:
            return False
        _, state = self.last_checkpoint
        self.operator.restore(state)
        self.restores += 1
        return True

    # -- data path ------------------------------------------------------------

    def receive(self, payload: "SensorTuple | TupleBatch", port: int = 0) -> None:
        """Process one message: run the operator, forward its emissions.

        The message is a tuple or a micro-batch.  The per-message overhead
        — liveness checks, work accounting, the operator call, the
        observability hooks and the downstream sends — is paid once either
        way.  What one call emits is born together and sent together: a
        batch's emissions, or several emissions of a lone tuple (a shard
        merge releasing a window on its last partial), are forwarded as
        one message per route; a lone tuple's single emission stays bare.
        """
        if self._stopped:
            return  # in-flight stragglers after teardown are discarded
        node = self._node
        if not node.up:
            return  # a dead node processes nothing
        operator = self.operator
        batched = type(payload) is TupleBatch
        count = len(payload) if batched else 1
        if count == 0:
            return
        node.account_work(operator.cost_per_tuple * count)
        if batched:
            emitted = operator.on_batch(payload, port=port)
        else:
            emitted = operator.on_tuple(payload, port=port)
        obs = self.obs
        if obs is not None:
            probe = self._probe
            if probe is not None:
                low, high = message_stamp_span(payload)
                probe.note(self.netsim.clock.now, low, high, count)
            members = message_members(payload)
            if any(t.trace is not None for t in members):
                emitted = self._trace_inputs(members, batched, emitted)
        if emitted:
            self._forward(emitted, batched or len(emitted) > 1)

    def _trace_inputs(self, members, batched: bool, emitted):
        """Record the operator span of every traced input and re-parent
        the emissions derived from it onto that span.

        A lone tuple owns all of its emissions.  Inside a batch only the
        operator knows the pairing, so an emission is re-parented when it
        still carries its input's context (a filter passes the tuple
        through; transforms and the columnar materializer clone
        provenance); blocking operators record theirs in the lineage store.
        """
        tracer = self.obs.tracer
        now = self.netsim.clock.now
        operator = self.operator
        tagged = {"batch": len(members)} if batched else {}
        children = {}
        for tuple_ in members:
            ctx = tuple_.trace
            if ctx is not None:
                span = tracer.span(
                    ctx, operator.span_name, now,
                    node=self.node_id,
                    operator=operator.name,
                    process=self.process_id,
                    tuple=tuple_key(tuple_),
                    **tagged,
                )
                children.setdefault(ctx, ctx.child_of(span))
        if not emitted or not self.routes:
            return emitted  # nothing to re-parent (and lazy rows stay lazy)
        if not batched:
            child = children[members[0].trace]
            return [out.with_trace(child) for out in emitted]
        return [
            out.with_trace(children[out.trace]) if out.trace in children else out
            for out in emitted
        ]

    def _fire_timer(self) -> None:
        """Flush a blocking operator; the flush travels as one burst."""
        node = self._node
        if not node.up:
            return
        now = self.netsim.clock.now
        emitted = self.operator.on_timer(now)
        probe = self._probe
        if probe is not None:
            # Empty flushes commit too: an idle window still advances the
            # operator's watermark through the flush instant.
            probe.commit_flush(now, emitted)
        if emitted:
            node.account_work(self.operator.cost_per_tuple * len(emitted))
            obs = self.obs
            if obs is not None and obs.tracer.enabled:
                # A blocking flush starts a fresh trace: the emitted
                # aggregate is a *new* tuple whose ancestry is recorded in
                # the lineage store, not in any single input's trace.
                ctx = obs.tracer.start_trace(
                    "flush", now,
                    node=self.node_id,
                    operator=self.operator.name,
                    process=self.process_id,
                    emitted=len(emitted),
                )
                if ctx is not None:
                    emitted = [out.with_trace(ctx) for out in emitted]
            # A multi-tuple flush is one message per route at any batch
            # setting; a single emission keeps the bare-tuple framing.
            self._forward(emitted, len(emitted) > 1)

    def _forward(self, emitted: "Sequence[SensorTuple]", batched: bool) -> None:
        """Send emissions down every route.

        ``batched`` is the caller's framing decision — everything one
        process call emitted, when that is more than one tuple: the run
        travels as one message per route, per owning member where the
        route's target is a shard group.  Otherwise each emission is its
        own bare-tuple message (emission-major, the order the clock's
        tie-break preserves).
        """
        routes = self.routes
        if not routes:
            return
        node_id = self.node_id
        send = self.netsim.send
        for message in (TupleBatch.of(emitted),) if batched else emitted:
            units = len(message) if batched else 1
            size = None  # sized once, however many routes carry it whole
            for route in routes:
                target = route.target
                if type(target) is not ShardGroup:
                    if size is None:
                        size = message_size_bytes(message)
                    send(node_id, target.node_id, message, size,
                         route.deliver, route.qos, None, units)
                    continue
                port = route.port
                if batched:
                    # Per-member sub-batches; order is preserved inside each.
                    parts = target.split(message, port)
                else:
                    parts = ((target.member_for(message, port), message),)
                for member, part in parts:
                    send(node_id, member.node_id, part,
                         message_size_bytes(part),
                         lambda payload, t=member, p=port: t.receive(payload, p),
                         route.qos, None, len(part) if batched else 1)

    # -- load reporting ----------------------------------------------------------

    def sample_load(self, now: float) -> float:
        """Update the hosting node's demand from the observed tuple rate.

        Returns the current demand in cost-units/second.
        """
        rate = self.rate.observe(now, float(self.operator.stats.tuples_in))
        demand = rate * self.operator.cost_per_tuple
        if self.process_id in self._node.processes:
            self._node.update_demand(self.process_id, demand)
        return demand
