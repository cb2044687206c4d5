"""The broker overlay: advertisement propagation and data routing.

One :class:`Broker` per network node holds the subscriptions of the
processes running there.  The :class:`BrokerNetwork` coordinates them:
publishing a sensor registers its metadata, propagates the advertisement to
every other broker (costed on the simulated links), and matches it against
standing subscriptions; data tuples flow from the sensor's managing node to
each matching *active* subscriber.

Paused subscriptions suppress traffic **at the source**: no message is sent
for them, which is precisely why the paper's trigger-gated acquisition
saves network resources rather than merely hiding data.

Delivery is **at-most-once with bounded retry**: a data message lost in the
network (no route, QoS budget, target died in flight) is retransmitted with
exponential backoff up to :class:`RetryPolicy.max_attempts` times; a tuple
whose budget is exhausted lands in the subscription's dead-letter queue and
is surfaced through the monitor instead of vanishing silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.errors import PubSubError, UnknownSensorError
from repro.network.netsim import NetworkSimulator
from repro.obs.lineage import tuple_key
from repro.pubsub.partition import ShardRouter
from repro.pubsub.registry import SensorMetadata, SensorRegistry
from repro.pubsub.subscription import (
    BatchingPolicy, Subscription, SubscriptionFilter,
)
from repro.streams.tuple import (
    SensorTuple,
    TupleBatch,
    message_members,
    message_size_bytes,
    message_stamp_span,
)

#: Wire size of a sensor advertisement (id + type + schema summary).
_ADVERTISEMENT_BYTES = 256


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for data-message redelivery.

    Attempt ``n`` (1-based; the first retry is attempt 1) is scheduled
    ``base_delay * multiplier**(n-1)`` seconds after the loss, capped at
    ``max_delay``.  ``max_attempts`` retries happen before a tuple is
    dead-lettered, so a tuple is transmitted at most ``max_attempts + 1``
    times — the documented at-most-once bound.
    """

    max_attempts: int = 3
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 0:
            raise PubSubError(f"max_attempts must be >= 0: {self.max_attempts}")
        if self.base_delay <= 0 or self.multiplier < 1.0 or self.max_delay <= 0:
            raise PubSubError(
                f"invalid backoff: base {self.base_delay}, "
                f"multiplier {self.multiplier}, cap {self.max_delay}"
            )

    def backoff(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (1-based)."""
        return min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))


@dataclass
class Broker:
    """Per-node broker: the subscriptions homed on one network node.

    Subscriptions are stored in an insertion-ordered dict keyed by
    ``subscription_id``, so removal is O(1) instead of a list scan;
    :attr:`subscriptions` exposes them as a list for callers.
    """

    node_id: str
    _subscriptions: dict[str, Subscription] = field(default_factory=dict)
    #: Sensor ids this broker has seen advertised (overlay propagation).
    known_sensors: set[str] = field(default_factory=set)

    @property
    def subscriptions(self) -> list[Subscription]:
        """The broker's subscriptions in insertion order."""
        return list(self._subscriptions.values())

    def add_subscription(self, subscription: Subscription) -> None:
        self._subscriptions[subscription.subscription_id] = subscription

    def remove_subscription(self, subscription: Subscription) -> None:
        if self._subscriptions.pop(subscription.subscription_id, None) is None:
            raise PubSubError(
                f"subscription {subscription.subscription_id} not on "
                f"broker {self.node_id!r}"
            )


class BrokerNetwork:
    """The distributed pub-sub system over the simulated network.

    With ``netsim=None`` the broker network runs in-process with immediate
    delivery — handy for unit tests and the centralized baseline; with a
    simulator, every advertisement and data tuple crosses the topology and
    is charged to its links.
    """

    def __init__(
        self,
        netsim: "NetworkSimulator | None" = None,
        registry: "SensorRegistry | None" = None,
        retry_policy: "RetryPolicy | None" = None,
        obs: "object | None" = None,
    ) -> None:
        self.netsim = netsim
        self.registry = registry if registry is not None else SensorRegistry()
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        #: Observability bundle (``repro.obs.Observability``).  The broker
        #: is where traces *begin*: a sampled publication gets a root
        #: ``publish`` span and the context rides the tuple from there.
        #: Assigning the ``obs`` property (also after construction — the
        #: executor attaches its bundle to a bare broker network) caches
        #: the hot-path instruments and lets the registry read the retry
        #: and dead-letter tallies below.
        self.obs = obs
        self._brokers: dict[str, Broker] = {}
        #: sensor_id -> matching route entries.  An entry is either a
        #: plain :class:`Subscription` or a :class:`ShardRouter` standing
        #: in for its member subscriptions (one entry per router, however
        #: many shards it fans to).
        self._routes: dict[str, "list[Subscription | ShardRouter]"] = {}
        self.on_sensor_published: "Callable[[SensorMetadata], None] | None" = None
        self.on_sensor_unpublished: "Callable[[SensorMetadata], None] | None" = None
        #: Called with (subscription, tuple, reason) when retries exhaust.
        self.on_dead_letter: "Callable[[Subscription, SensorTuple, str], None] | None" = None
        self.advertisements_sent = 0
        self.data_messages_sent = 0
        self.data_messages_suppressed = 0
        self.data_messages_retried = 0
        #: Counted per *tuple*, unlike the other ``data_messages_*``
        #: counters: a lost batch dead-letters each of its members.
        self.data_messages_dead_lettered = 0
        #: Tuples routed to subscribers — equals ``data_messages_sent``
        #: without batching; with batching, one message carries many tuples.
        self.data_tuples_sent = 0
        self.data_tuples_suppressed = 0

    @property
    def obs(self) -> "object | None":
        return self._obs

    @obs.setter
    def obs(self, value: "object | None") -> None:
        self._obs = value
        self._published_counters: dict[str, object] = {}
        if value is None:
            return
        value.metrics.reader(
            "broker_retries_total", "counter",
            partial(getattr, self, "data_messages_retried"),
            "data-message redelivery attempts",
        )
        value.metrics.reader(
            "broker_dead_letters_total", "counter",
            partial(getattr, self, "data_messages_dead_lettered"),
            "tuples dead-lettered after retry exhaustion",
        )
        self._batch_size_histogram = value.metrics.histogram(
            "broker_batch_size",
            "tuples per published micro-batch",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
        )

    # -- broker membership ---------------------------------------------------

    def broker(self, node_id: str) -> Broker:
        """The broker on ``node_id`` (created on first use).

        A broker created after sensors have already been published missed
        their advertisements, so ``known_sensors`` is back-filled from the
        registry — the overlay's ground truth — on creation.
        """
        if self.netsim is not None and node_id not in self.netsim.topology:
            raise PubSubError(f"no network node {node_id!r} to host a broker")
        if node_id not in self._brokers:
            self._brokers[node_id] = Broker(
                node_id=node_id,
                known_sensors={m.sensor_id for m in self.registry.all()},
            )
        return self._brokers[node_id]

    @property
    def brokers(self) -> list[Broker]:
        return list(self._brokers.values())

    def iter_subscriptions(self):
        """Every subscription across all brokers, in broker/insertion
        order (the latency plane's backlog sweep)."""
        for broker in self._brokers.values():
            yield from broker.subscriptions

    # -- publish / unpublish (sensors joining and leaving, P3) -----------------

    def publish(self, metadata: SensorMetadata) -> None:
        """Publish a sensor: register, propagate, match subscriptions."""
        self.registry.register(metadata)
        home = self.broker(metadata.node_id)
        home.known_sensors.add(metadata.sensor_id)
        # Advertisement propagation through the overlay.
        for broker in self._brokers.values():
            if broker.node_id == metadata.node_id:
                continue
            self._send_advertisement(metadata, broker)
        self._rebuild_routes_for(metadata.sensor_id)
        if self.on_sensor_published is not None:
            self.on_sensor_published(metadata)

    def unpublish(self, sensor_id: str) -> SensorMetadata:
        """A sensor leaves the network; its routes disappear."""
        metadata = self.registry.unregister(sensor_id)
        for broker in self._brokers.values():
            broker.known_sensors.discard(sensor_id)
        self._routes.pop(sensor_id, None)
        if self.on_sensor_unpublished is not None:
            self.on_sensor_unpublished(metadata)
        return metadata

    def _send_advertisement(self, metadata: SensorMetadata, broker: Broker) -> None:
        self.advertisements_sent += 1
        if self.netsim is None:
            broker.known_sensors.add(metadata.sensor_id)
            return
        self.netsim.send(
            source=metadata.node_id,
            target=broker.node_id,
            payload=("advertise", metadata.sensor_id),
            size_bytes=_ADVERTISEMENT_BYTES,
            on_delivery=lambda _payload, b=broker, sid=metadata.sensor_id: (
                b.known_sensors.add(sid)
            ),
        )

    # -- subscribe / unsubscribe ---------------------------------------------

    def subscribe(
        self,
        node_id: str,
        filter_: SubscriptionFilter,
        callback: Callable[[SensorTuple], None],
        batch: "BatchingPolicy | None" = None,
    ) -> Subscription:
        """Create an active subscription homed on ``node_id``; ``batch`` is
        the micro-batch policy its channel declares."""
        subscription = Subscription(filter=filter_, callback=callback,
                                    node_id=node_id, batch=batch)
        self.broker(node_id).add_subscription(subscription)
        # Incremental: match only the new subscription against registered
        # sensors instead of rebuilding every route (O(sensors) instead of
        # O(sensors x subscriptions)).
        for metadata in self.registry.all():
            if subscription.filter.matches(metadata):
                self._routes.setdefault(metadata.sensor_id, []).append(subscription)
        return subscription

    def subscribe_sharded(
        self,
        node_ids: "list[str]",
        filter_: SubscriptionFilter,
        callbacks: "list[Callable[[SensorTuple], None]]",
        keys: "tuple[str, ...]",
        batch_callbacks: "list | None" = None,
        assignment=None,
        batch: "BatchingPolicy | None" = None,
    ) -> ShardRouter:
        """Create N member subscriptions routed through one ShardRouter.

        Each member is homed on its shard's node (and registered with that
        node's broker, so per-node bookkeeping is unchanged), but the
        routing tables carry the *router*: per published tuple exactly one
        member — the shard owning the tuple's key — receives it.
        ``assignment`` threads the elastic routing overlay through to the
        router (None for static shard groups).  Every member carries the
        channel's ``batch`` policy.
        """
        if len(node_ids) != len(callbacks):
            raise PubSubError(
                f"sharded subscribe needs one callback per node: "
                f"{len(node_ids)} nodes, {len(callbacks)} callbacks"
            )
        members: list[Subscription] = []
        for index, (node_id, callback) in enumerate(zip(node_ids, callbacks)):
            subscription = Subscription(
                filter=filter_, callback=callback, node_id=node_id,
                batch=batch,
            )
            if batch_callbacks is not None:
                subscription.batch_callback = batch_callbacks[index]
            self.broker(node_id).add_subscription(subscription)
            members.append(subscription)
        router = ShardRouter(members, keys, assignment=assignment)
        for metadata in self.registry.all():
            if filter_.matches(metadata):
                self._routes.setdefault(metadata.sensor_id, []).append(router)
        return router

    def unsubscribe(self, subscription: Subscription) -> None:
        self.broker(subscription.node_id).remove_subscription(subscription)
        router = subscription.router
        if router is not None:
            # Removing a member narrows the router; the routing entry
            # disappears with its last member.  (Shard membership only
            # changes wholesale at teardown — partial removal would remap
            # the key space.)
            router.members.remove(subscription)
            subscription.router = None
            if not router.members:
                for matches in self._routes.values():
                    try:
                        matches.remove(router)
                    except ValueError:
                        pass
            return
        # Incremental: drop just this subscription from the routes it is on.
        for matches in self._routes.values():
            try:
                matches.remove(subscription)
            except ValueError:
                pass

    def subscriptions_for(self, sensor_id: str) -> list[Subscription]:
        """The subscriptions a sensor's data is currently routed to.

        Router entries are expanded to their member subscriptions — the
        callers of this API reason about subscriptions, not routing
        furniture.
        """
        if sensor_id not in self.registry:
            raise UnknownSensorError(f"unknown sensor {sensor_id!r}")
        out: list[Subscription] = []
        for entry in self._routes.get(sensor_id, ()):
            if isinstance(entry, ShardRouter):
                out.extend(entry.members)
            else:
                out.append(entry)
        return out

    def batching_for(self, sensor_id: str) -> "BatchingPolicy | None":
        """How ``sensor_id`` publishes now: the largest batch and the
        tightest flush bound over the batched routes it has, or None (one
        message per reading).  Read off the routes, so late joins,
        teardowns and further deployments need no bookkeeping."""
        found = None
        for entry in self._routes.get(sensor_id, ()):
            policy = entry.batch
            if policy is None or policy.max_batch == 1 or policy == found:
                continue
            found = policy if found is None else BatchingPolicy(
                max(found.max_batch, policy.max_batch),
                min(found.max_delay, policy.max_delay),
            )
        return found

    def _rebuild_routes_for(self, sensor_id: str) -> None:
        metadata = self.registry.get(sensor_id)
        matches: "list[Subscription | ShardRouter]" = []
        seen_routers: set[int] = set()
        for broker in self._brokers.values():
            for subscription in broker.subscriptions:
                if not subscription.filter.matches(metadata):
                    continue
                router = subscription.router
                if router is None:
                    matches.append(subscription)
                elif id(router) not in seen_routers:
                    # A sharded consumer appears once, as its router —
                    # member-by-member entries would deliver N copies.
                    seen_routers.add(id(router))
                    matches.append(router)
        self._routes[sensor_id] = matches

    # -- data plane ---------------------------------------------------------------

    def _publish(
        self, sensor_id: str, payload: "SensorTuple | TupleBatch"
    ) -> int:
        """Route one message to every matching active subscription.

        The message is a reading or a :class:`TupleBatch`: the route lookup
        and the active check happen once per message, and each subscriber
        gets it as one network message (a sharded consumer: one per member
        owning some of its keys).  Returns the deliveries initiated.
        Inactive (paused) subscriptions generate **no** traffic and are
        counted as suppressed — trigger-gated acquisition saves the
        network, not just the screen.  Counters are message-denominated
        (``data_messages_*``) and tuple-denominated (``data_tuples_*``),
        so monitoring does not under-count batched traffic.  A lost message
        is retried per :attr:`retry_policy`; when the budget exhausts its
        tuples are dead-lettered on the subscription, not silently dropped.
        """
        metadata = self.registry.get(sensor_id)
        batched = type(payload) is TupleBatch
        if batched and not payload:
            return 0
        if self.obs is not None:
            payload = self._observe_publish(metadata, payload)
        initiated = 0
        for entry in self._routes.get(sensor_id, ()):
            if type(entry) is not ShardRouter:
                targets = ((entry, payload),)
            elif batched:
                # Split once per (router, batch); members receive their
                # key-owned sub-batches in arrival order.
                targets = entry.split_batch(payload)
            else:
                # Key-hashed delivery: exactly one shard owns this tuple.
                targets = ((entry.member_for(payload), payload),)
            for subscription, message in targets:
                units = len(message) if batched else 1
                if not subscription.active:
                    subscription.suppressed += units
                    self.data_messages_suppressed += 1
                    self.data_tuples_suppressed += units
                    continue
                self.data_messages_sent += 1
                self.data_tuples_sent += units
                initiated += 1
                if self.netsim is None:
                    subscription.deliver(message)
                else:
                    self._transmit(metadata, subscription, message, units, 0)
        return initiated

    #: Tuple-at-a-time entry point (sensors with ``max_batch`` 1): a bare
    #: reading *is* a one-unit message, so this is the message path itself
    #: rather than a wrapper frame around the hottest call in the broker.
    publish_data = _publish

    def publish_batch(
        self, sensor_id: str, tuples: "TupleBatch | list[SensorTuple]"
    ) -> int:
        """Publish a run of readings as one message (none if it is empty)."""
        return self._publish(
            sensor_id,
            tuples if type(tuples) is TupleBatch else TupleBatch.of(tuples),
        )

    def _now(self) -> float:
        """Current virtual time (0.0 when running transport-less).

        This is the broker's only notion of time: publication stamps,
        retry backoff and dead-letter ``failed_at`` all read the
        transport's clock, so the broker is execution-backend agnostic —
        under the asyncio backend the same clock reports logical epoch
        deadlines and delivery crosses bounded queues, with no broker
        changes.
        """
        return self.netsim.clock.now if self.netsim is not None else 0.0

    def _observe_publish(
        self, metadata: SensorMetadata, payload: "SensorTuple | TupleBatch"
    ) -> "SensorTuple | TupleBatch":
        """Count the publication and open the trace of each sampled tuple.

        Sampling is per tuple inside a batch too — the error-diffusion
        sampler decides tuple by tuple, so sampling=0 costs one ``enabled``
        check per message.
        """
        obs = self.obs
        counter = self._published_counters.get(metadata.sensor_id)
        if counter is None:
            counter = self._published_counters[metadata.sensor_id] = (
                obs.metrics.counter(
                    "broker_tuples_published_total",
                    "readings published through the broker overlay",
                    source=metadata.sensor_id,
                )
            )
        members = message_members(payload)
        batched = type(payload) is TupleBatch
        counter.inc(len(members))
        if batched:
            self._batch_size_histogram.observe(len(members))
        plane = obs.latency
        if plane is not None:
            low, high = message_stamp_span(payload)
            plane.note_publish(metadata.sensor_id, self._now(), low, high)
        tracer = obs.tracer
        if not tracer.enabled:
            return payload
        now = self._now()
        tagged = {"batch": len(members)} if batched else {}
        traced = []
        changed = False
        for tuple_ in members:
            if tuple_.trace is None:
                ctx = tracer.start_trace(
                    "publish", now,
                    source=metadata.sensor_id,
                    node=metadata.node_id,
                    tuple=tuple_key(tuple_),
                    **tagged,
                )
                if ctx is not None:
                    tuple_ = tuple_.with_trace(ctx)
                    changed = True
            traced.append(tuple_)
        if not changed:
            return payload
        # Trace attachment preserves every payload, so a batch's clone
        # keeps its wire-size memo (with_traced, not with_tuples).
        return payload.with_traced(traced) if batched else traced[0]

    def _transmit(
        self,
        metadata: SensorMetadata,
        subscription: Subscription,
        payload: "SensorTuple | TupleBatch",
        units: int,
        attempt: int,
    ) -> None:
        """One transmission attempt; losses re-enter via ``_on_loss``."""
        plane = self._obs.latency if self._obs is not None else None
        if plane is None:
            on_delivery = subscription.deliver
        else:
            subscription.inflight += 1

            def on_delivery(payload, s=subscription, p=plane):
                s.inflight -= 1
                p.note_deliver(
                    str(s.subscription_id),
                    self.netsim.clock.now, message_stamp_span(payload)[0],
                )
                s.deliver(payload)

        self.netsim.send(
            metadata.node_id,
            subscription.node_id,
            payload,
            message_size_bytes(payload),
            on_delivery,
            None,
            lambda _message, reason: self._on_loss(
                metadata, subscription, payload, units, attempt, reason
            ),
            units,
        )

    def _on_loss(
        self,
        metadata: SensorMetadata,
        subscription: Subscription,
        payload: "SensorTuple | TupleBatch",
        units: int,
        attempt: int,
        reason: str,
    ) -> None:
        """A data message was lost: back off and retry, or dead-letter.

        A retry redelivers the message whole (all-or-nothing loss, one
        backoff timer per message however many tuples it carries).  On
        exhaustion every tuple is dead-lettered *individually* — audit
        records and the ``on_dead_letter`` hook stay tuple-denominated, so
        the monitor's quorum logic and the audit format are unchanged by
        batching.
        """
        obs = self.obs
        if obs is not None and obs.latency is not None and subscription.inflight > 0:
            subscription.inflight -= 1  # the retry re-increments on transmit
        now = self.netsim.clock.now
        if attempt < self.retry_policy.max_attempts:
            next_attempt = attempt + 1
            subscription.retries += 1
            self.data_messages_retried += 1
            backoff = self.retry_policy.backoff(next_attempt)
            if obs is not None:
                tagged = (
                    {"batch": units} if type(payload) is TupleBatch else {}
                )
                for tuple_ in message_members(payload):
                    if tuple_.trace is not None:
                        obs.tracer.span(
                            tuple_.trace, "retry", now, now + backoff,
                            attempt=next_attempt,
                            to=subscription.node_id,
                            reason=reason,
                            **tagged,
                        )
            self.netsim.clock.schedule(
                backoff, self._transmit,
                metadata, subscription, payload, units, next_attempt,
            )
            return
        for tuple_ in message_members(payload):
            self.data_messages_dead_lettered += 1
            if obs is not None and tuple_.trace is not None:
                obs.tracer.span(
                    tuple_.trace, "dead-letter", now,
                    subscription=subscription.subscription_id,
                    to=subscription.node_id,
                    reason=reason,
                )
            subscription.dead_letter(tuple_, reason, failed_at=now)
            if self.on_dead_letter is not None:
                self.on_dead_letter(subscription, tuple_, reason)
