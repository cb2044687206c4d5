"""Simulated sensors: clock-driven emission through the pub-sub layer.

A :class:`SimulatedSensor` pairs a :class:`SensorMetadata` advertisement
with a deterministic value generator.  Attaching it to a broker network
publishes the advertisement and schedules periodic emissions at the
advertised frequency; each emission is stamp-backfilled and routed to
subscribers.  Sensors are seeded individually (id-derived), so fleets are
reproducible regardless of attachment order.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Protocol

import numpy as np

from repro.errors import PubSubError
from repro.network.simclock import ScheduledEvent, SimClock
from repro.pubsub.broker import BrokerNetwork
from repro.pubsub.registry import SensorMetadata
from repro.pubsub.stamping import backfill_stamp


class ValueGenerator(Protocol):
    """Produces one payload given the virtual time and the sensor's RNG.

    May return ``None`` to skip an emission (event-style sensors such as
    schedule feeds emit only when something happens).
    """

    def __call__(self, now: float, rng: np.random.Generator) -> "dict | None": ...


def _seed_for(sensor_id: str, base_seed: int) -> int:
    digest = hashlib.sha256(f"{base_seed}:{sensor_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class SimulatedSensor:
    """A sensor that lives on the virtual clock.

    >>> sensor = SimulatedSensor(metadata, generator)   # doctest: +SKIP
    >>> sensor.attach(broker_network, clock)            # doctest: +SKIP
    """

    def __init__(
        self,
        metadata: SensorMetadata,
        generator: ValueGenerator,
        seed: int = 7,
    ) -> None:
        self.metadata = metadata
        self.generator = generator
        self.seed = seed
        self.rng = np.random.default_rng(_seed_for(metadata.sensor_id, seed))
        self.emitted = 0
        self.skipped = 0
        self._buffer: list = []
        self._flush_event: "ScheduledEvent | None" = None
        self._cancel: "Callable[[], None] | None" = None
        self._network: "BrokerNetwork | None" = None
        self._clock: "SimClock | None" = None

    @property
    def sensor_id(self) -> str:
        return self.metadata.sensor_id

    @property
    def attached(self) -> bool:
        return self._cancel is not None

    def attach(self, network: BrokerNetwork, clock: SimClock) -> None:
        """Publish the sensor and start emitting on the clock."""
        if self.attached:
            raise PubSubError(f"sensor {self.sensor_id!r} is already attached")
        network.publish(self.metadata)
        self._network = network
        self._clock = clock
        self._cancel = clock.schedule_periodic(
            self.metadata.period, lambda: self._emit(clock.now)
        )

    def detach(self) -> None:
        """Stop emitting and unpublish (a sensor leaving the network).

        Buffered readings are flushed first — detaching never loses data
        that was already generated.
        """
        if not self.attached:
            raise PubSubError(f"sensor {self.sensor_id!r} is not attached")
        assert self._cancel is not None and self._network is not None
        self.flush()
        self._cancel()
        self._network.unpublish(self.sensor_id)
        self._cancel = None
        self._network = None
        self._clock = None

    def _emit(self, now: float) -> None:
        network = self._network
        assert network is not None
        payload = self.generator(now, self.rng)
        if payload is None:
            self.skipped += 1
            return
        tuple_ = backfill_stamp(
            payload=payload,
            metadata=self.metadata,
            now=now,
            seq=self.emitted,
        )
        self.emitted += 1
        # The deployed programs decide the batch, per emission: the
        # channels routing this sensor now (``batch N within S``).
        policy = network.batching_for(self.sensor_id)
        if policy is None:
            if self._buffer:
                # Batching stopped: what is buffered goes out first, so
                # no reading is overtaken.
                self.flush()
            network.publish_data(self.sensor_id, tuple_)
            return
        # Adaptive flusher: hold the reading back until the batch fills or
        # the delay budget for its first buffered sibling expires.
        self._buffer.append(tuple_)
        if len(self._buffer) >= policy.max_batch:
            self.flush()
        elif len(self._buffer) == 1:
            assert self._clock is not None
            self._flush_event = self._clock.schedule(
                policy.max_delay, self.flush
            )

    def flush(self) -> int:
        """Publish any buffered readings now; returns tuples flushed."""
        if self._flush_event is not None:
            self._flush_event.cancel()
            self._flush_event = None
        if not self._buffer:
            return 0
        batch = self._buffer
        self._buffer = []
        assert self._network is not None
        self._network.publish_batch(self.sensor_id, batch)
        return len(batch)

    def probe(self, now: float) -> "dict | None":
        """Generate a payload without emitting (designer sample preview).

        Uses a disposable RNG so probing never perturbs the live stream.
        """
        rng = np.random.default_rng(_seed_for(self.sensor_id, self.seed) ^ 0xA5)
        return self.generator(now, rng)
