"""Subscriptions: who receives which sensor streams.

A subscription pairs a filter (by sensor id, type, theme, area) with a
delivery callback and an activation state.  The activation state is the
control-plane hook: Trigger On/Off commands pause or resume the matched
subscriptions rather than touching the sensors themselves, exactly the
"activating/de-activating the streams" behaviour of Table 1.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import PubSubError
from repro.pubsub.registry import SensorMetadata
from repro.streams.tuple import SensorTuple, TupleBatch
from repro.stt.spatial import Box, representative_point
from repro.stt.thematic import Theme

_subscription_ids = itertools.count(1)

#: Most recent dead letters retained per subscription.
DEAD_LETTER_CAPACITY = 1000


@dataclass(frozen=True)
class DeadLetter:
    """A tuple the broker gave up on delivering to one subscription."""

    tuple: SensorTuple
    reason: str
    failed_at: float


@dataclass(frozen=True)
class SubscriptionFilter:
    """Predicate over sensor advertisements.

    All given criteria must hold (conjunctive).  An empty filter matches
    every sensor — legal but usually a design smell, so the designer warns.

    Attributes:
        sensor_ids: exact ids to accept.
        sensor_type: required type label.
        theme: required theme (matches sub/super-themes).
        area: sensor location must fall in this box.
        min_frequency / max_frequency: bounds on advertised rate.
    """

    sensor_ids: tuple[str, ...] = ()
    sensor_type: str = ""
    theme: "Theme | None" = None
    area: "Box | None" = None
    min_frequency: float = 0.0
    max_frequency: float = float("inf")

    def __post_init__(self) -> None:
        if self.min_frequency > self.max_frequency:
            raise PubSubError(
                f"min_frequency ({self.min_frequency}) exceeds "
                f"max_frequency ({self.max_frequency})"
            )

    def matches(self, metadata: SensorMetadata) -> bool:
        if self.sensor_ids and metadata.sensor_id not in self.sensor_ids:
            return False
        if self.sensor_type and metadata.sensor_type != self.sensor_type:
            return False
        if self.theme is not None and not metadata.has_theme(self.theme):
            return False
        if self.area is not None and not self.area.contains(
            representative_point(metadata.location)
        ):
            return False
        if not (self.min_frequency <= metadata.frequency <= self.max_frequency):
            return False
        return True

    @classmethod
    def for_sensor(cls, sensor_id: str) -> "SubscriptionFilter":
        return cls(sensor_ids=(sensor_id,))


@dataclass(frozen=True)
class BatchingPolicy:
    """How a source micro-batches for one subscription (DSN ``batch N
    within S``).

    Readings buffer at the sensor and flush as one
    :meth:`~repro.pubsub.broker.BrokerNetwork.publish_batch` when either
    ``max_batch`` tuples have accumulated or ``max_delay`` virtual seconds
    have passed since the first buffered reading, whichever comes first.
    ``max_batch=1`` disables buffering: every reading goes straight
    through ``publish_data``.
    """

    max_batch: int = 1
    max_delay: float = 1.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise PubSubError(f"max_batch must be >= 1: {self.max_batch}")
        if self.max_batch > 1 and self.max_delay <= 0:
            raise PubSubError(
                f"max_delay must be positive when batching: {self.max_delay}"
            )


@dataclass
class Subscription:
    """An active interest in matching sensor streams.

    Attributes:
        filter: which sensors this subscription receives.
        callback: invoked with each delivered :class:`SensorTuple`.
        node_id: network node where the subscriber runs (delivery target).
        active: paused subscriptions match but do not receive data.
        batch: the micro-batch policy its channel declares (None: one
            message per reading); the sensors it matches publish under
            :meth:`~repro.pubsub.broker.BrokerNetwork.batching_for`.
        subscription_id: unique, assigned at construction.
        retries: redelivery attempts the broker made on this subscription's
            behalf.
        dead_letters: tuples whose delivery the broker abandoned after
            exhausting its retry budget (most recent
            ``DEAD_LETTER_CAPACITY`` kept).
    """

    filter: SubscriptionFilter
    callback: Callable[[SensorTuple], None]
    node_id: str
    #: Optional whole-batch delivery hook.  When set, a delivered
    #: :class:`~repro.streams.tuple.TupleBatch` is handed over in one call
    #: (the executor points it, like ``callback``, at
    #: ``OperatorProcess.receive``, which takes either payload); when
    #: ``None``, batches are unrolled through ``callback`` per tuple.
    batch_callback: "Callable[[object], None] | None" = None
    #: The :class:`~repro.pubsub.partition.ShardRouter` this subscription
    #: is a member of, if any.  Member subscriptions never appear in the
    #: broker's routing tables directly — the router does, and picks one
    #: member per tuple by key hash.
    router: "object | None" = None
    batch: "BatchingPolicy | None" = None
    active: bool = True
    subscription_id: int = field(default_factory=lambda: next(_subscription_ids))
    delivered: int = 0
    suppressed: int = 0
    retries: int = 0
    dead_letters: "deque[DeadLetter]" = field(
        default_factory=lambda: deque(maxlen=DEAD_LETTER_CAPACITY))
    #: Messages transmitted to this subscription and not yet delivered or
    #: abandoned — the broker's backlog signal.  Maintained only while the
    #: latency plane is installed (``broker_subscription_backlog`` gauge);
    #: stays 0 otherwise.
    inflight: int = 0

    def pause(self) -> None:
        self.active = False

    def resume(self) -> None:
        self.active = True

    def dead_letter(self, tuple_: SensorTuple, reason: str, failed_at: float) -> DeadLetter:
        """Record an undeliverable tuple (bounded queue, oldest evicted)."""
        letter = DeadLetter(tuple=tuple_, reason=reason, failed_at=failed_at)
        self.dead_letters.append(letter)
        return letter

    def deliver(self, payload: "SensorTuple | TupleBatch") -> int:
        """Deliver a message if active; returns tuples delivered.

        Counters stay tuple-denominated so pausing/resuming under batching
        reports the same suppressed/delivered totals as tuple-at-a-time
        delivery.
        """
        batched = type(payload) is TupleBatch
        count = len(payload) if batched else 1
        if not self.active:
            self.suppressed += count
            return 0
        self.delivered += count
        if not batched:
            self.callback(payload)
        elif self.batch_callback is not None:
            self.batch_callback(payload)
        else:
            callback = self.callback
            for tuple_ in payload:
                callback(tuple_)
        return count
