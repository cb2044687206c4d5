"""The network simulator: message delivery over the topology.

Combines the clock and the topology: a message sent between nodes is routed
over the latency-shortest live path, charged to every link it crosses, and
delivered via a scheduled callback after the accumulated propagation and
transmission delay.  This is the substrate the SCN configures and the
executor's operator processes communicate over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from repro.errors import UnreachableError
from repro.network.qos import QosPolicy
from repro.network.simclock import SimClock
from repro.network.topology import Topology


class Message(NamedTuple):
    """An in-flight network message."""

    source: str
    target: str
    payload: object
    size_bytes: float
    sent_at: float
    #: Payload units carried: 1 for a single tuple, batch length for a
    #: :class:`~repro.streams.tuple.TupleBatch`.  Keeps tuple-level traffic
    #: accounting honest when batching is on.
    units: int = 1


@dataclass
class _TrafficStats:
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    #: Payload units (tuples), distinct from network messages — a batched
    #: message counts once in messages_* but ``len(batch)`` times here.
    tuples_sent: int = 0
    tuples_delivered: int = 0
    bytes_sent: float = 0.0
    total_delay: float = 0.0

    @property
    def mean_delay(self) -> float:
        if self.messages_delivered == 0:
            return 0.0
        return self.total_delay / self.messages_delivered


class NetworkSimulator:
    """Clock + topology + message routing.

    >>> topo = Topology.line(3)
    >>> sim = NetworkSimulator(topology=topo)
    >>> inbox = []
    >>> message = sim.send("node-0", "node-2", {"v": 1}, 100, inbox.append)
    >>> sim.clock.run()
    1
    >>> inbox
    [{'v': 1}]
    """

    #: Which execution backend this transport belongs to.  The monitor
    #: surfaces it so a report is self-describing about what produced it.
    backend_name = "sim"

    def __init__(
        self,
        topology: "Topology | None" = None,
        clock: "SimClock | None" = None,
        default_qos: "QosPolicy | None" = None,
    ) -> None:
        self.topology = topology if topology is not None else Topology()
        self.clock = clock or SimClock()
        self.default_qos = default_qos or QosPolicy()
        self.stats = _TrafficStats()
        #: Called with (message, reason) whenever a message is dropped.
        self.on_drop: "Callable[[Message, str], None] | None" = None
        #: Observability tracer (``repro.obs.trace.Tracer``).  When set,
        #: every send whose payload carries a trace context records a
        #: ``transmit`` span covering the full propagation delay, and
        #: losses record ``drop`` spans.  ``None`` costs one attribute
        #: read per send.
        self.tracer = None
        #: Latency plane (``repro.obs.latency.LatencyPlane``).  When set,
        #: every non-local send increments the route's in-flight count and
        #: every delivery (or in-flight loss) decrements it — the link
        #: occupancy signal behind ``network_route_inflight``.  ``None``
        #: costs one attribute read per send.
        self.plane = None

    def send(
        self,
        source: str,
        target: str,
        payload: object,
        size_bytes: float,
        on_delivery: Callable[[object], None],
        qos: "QosPolicy | None" = None,
        on_drop: "Callable[[Message, str], None] | None" = None,
        units: int = 1,
    ) -> "Message | None":
        """Route a message and schedule its delivery.

        Local sends (source == target) are delivered after a negligible
        scheduling delay, consistent with the in-process queues of
        co-located operators.  Returns the message, or None if it was
        dropped (no route, or latency budget exceeded).

        ``units`` is how many tuples the payload carries (1 for a reading,
        the length of a micro-batch).  Whatever it carries, a message is
        routed once, charged to its links once (``size_bytes`` is the
        caller's aggregate wire size — the simulator stays stream-agnostic)
        and delivered by one scheduled event: that is the amortization.

        ``on_drop`` is a per-message loss callback invoked with
        ``(message, reason)`` whenever this particular message is dropped —
        at send time (no route, QoS budget) or at delivery time (target
        died in flight); a batch is lost whole, so it fires once.  Senders
        that guarantee redelivery (the broker's retry path) hang their
        retry logic off it; the global :attr:`on_drop` hook still fires
        for every loss.
        """
        now = self.clock.now
        stats = self.stats
        stats.messages_sent += 1
        stats.tuples_sent += units
        stats.bytes_sent += size_bytes

        delay = 0.0
        hops = ()  # a local send crosses no link
        if source != target:
            try:
                # Memoized route + pre-resolved links: the per-message cost
                # is a dict hit, not a routing-graph rebuild plus per-hop
                # lookups.
                hops = self.topology.route_info(source, target).hops
            except UnreachableError as exc:
                self._drop(
                    Message(source, target, payload, size_bytes, now, units),
                    str(exc), on_drop,
                )
                return None
            policy = qos or self.default_qos
            segments = policy.segments(size_bytes)
            per_segment = size_bytes / segments
            charge = size_bytes if size_bytes > 0.0 else 0.0
            for latency, bandwidth, counters in hops:
                # Segments pipeline over the path: total time is dominated
                # by the per-hop latency plus the serialized transmission
                # of all segments on each hop.  Counter writes go straight
                # to the link's instance dict (same math and totals as
                # Link.account).
                delay += latency + segments * (per_segment / bandwidth)
                counters["bytes_transferred"] += charge
                counters["messages_transferred"] += 1
            if delay > policy.max_latency:
                self._drop(
                    Message(source, target, payload, size_bytes, now, units),
                    f"route latency {delay:.4f}s exceeds QoS budget "
                    f"{policy.max_latency}s",
                    on_drop,
                )
                return None
            if self.plane is not None:
                self.plane.link_send(source, target)
        if self.tracer is not None:
            payload = self._trace_transmit(
                payload, source, target, now, now + delay, hops, size_bytes
            )
        message = Message(source, target, payload, size_bytes, now, units)
        self._schedule_delivery(message, delay, on_delivery, on_drop)
        return message

    def _trace_transmit(
        self,
        payload: object,
        source: str,
        target: str,
        start: float,
        end: float,
        hops: "Sequence",
        size_bytes: float,
    ) -> object:
        """Record a ``transmit`` span for every traced tuple of a message.

        Sampling is per tuple, so a batch carries no trace of its own: its
        traced members each get a span (tagged with the batch size) and a
        child context.  Returns the payload re-parented onto the new
        spans, or unchanged when nothing in it is traced — including
        control payloads (advertisements), which have neither attribute.
        """
        members = getattr(payload, "tuples", None)
        batched = members is not None
        if not batched:
            members = (payload,)
        if not any(getattr(t, "trace", None) is not None for t in members):
            return payload
        attrs: dict[str, object] = {"from": source, "to": target}
        if batched:
            attrs["batch"] = len(members)
        if hops:
            attrs.update(hops=len(hops), bytes=size_bytes)
        traced = []
        for tuple_ in members:
            ctx = tuple_.trace
            if ctx is not None:
                span = self.tracer.span(ctx, "transmit", start, end, **attrs)
                tuple_ = tuple_.with_trace(ctx.child_of(span))
            traced.append(tuple_)
        # Payload-preserving clone: a batch's wire-size memo rides along.
        return payload.with_traced(traced) if batched else traced[0]

    def _schedule_delivery(
        self,
        message: Message,
        delay: float,
        on_delivery: Callable[[object], None],
        on_drop: "Callable[[Message, str], None] | None",
    ) -> None:
        """Hand a routed message to the delivery substrate.

        The seam between routing (shared by every backend: route lookup,
        QoS admission, link accounting, stats) and delivery.  Here the
        message becomes a clock event that fires :meth:`_deliver` after
        ``delay`` — on the asyncio backend too, whose processes sit behind
        mailboxes that ``on_delivery`` submits to.
        """
        self.clock.schedule(delay, self._deliver, message, on_delivery, on_drop)

    def _deliver(
        self,
        message: Message,
        on_delivery: Callable[[object], None],
        on_drop: "Callable[[Message, str], None] | None" = None,
    ) -> None:
        if self.plane is not None and message.source != message.target:
            self.plane.link_done(message.source, message.target)
        # A node that died while the message was in flight loses it.
        node = self.topology._nodes.get(message.target)
        if node is not None and not node.up:
            self._drop(message, f"target node {message.target!r} is down", on_drop)
            return
        stats = self.stats
        stats.messages_delivered += 1
        stats.tuples_delivered += message.units
        stats.total_delay += self.clock.now - message.sent_at
        on_delivery(message.payload)

    def _drop(
        self,
        message: Message,
        reason: str,
        on_drop: "Callable[[Message, str], None] | None" = None,
    ) -> None:
        self.stats.messages_dropped += 1
        tracer = self.tracer
        if tracer is not None:
            ctx = getattr(message.payload, "trace", None)
            if ctx is not None:
                tracer.span(
                    ctx, "drop", self.clock.now, reason=reason,
                    **{"from": message.source, "to": message.target},
                )
            # A dropped batch records one drop span per traced member.
            for tuple_ in getattr(message.payload, "tuples", ()):
                if tuple_.trace is not None:
                    tracer.span(
                        tuple_.trace, "drop", self.clock.now,
                        reason=reason, batch=message.units,
                        **{"from": message.source, "to": message.target},
                    )
        if on_drop is not None:
            on_drop(message, reason)
        if self.on_drop is not None:
            self.on_drop(message, reason)

    # -- fault injection ------------------------------------------------------

    def kill_node(self, node_id: str) -> None:
        """Fail a node mid-run (fault-injection API).

        The node stops processing immediately: in-flight messages to it are
        lost at delivery time, routes stop traversing it, and its operator
        processes fall silent — which is what the monitor's heartbeat-based
        failure detector eventually notices.
        """
        self.topology.node(node_id).fail()

    def revive_node(self, node_id: str) -> None:
        """Bring a killed node back (it rejoins routing and processing)."""
        self.topology.node(node_id).recover()

    # -- traffic accounting ---------------------------------------------------

    def total_link_bytes(self) -> float:
        """Total bytes moved across all links (the in-network-vs-central
        ablation metric)."""
        return sum(link.bytes_transferred for link in self.topology.links)
