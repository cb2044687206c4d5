"""Fault-injection sensors for the P3 walkthrough and failure tests.

P3 demonstrates "how the system react when sensors ... are modified on the
fly" — which includes sensors that misbehave.  :class:`FlakySensor` drops
out and rejoins; :class:`MalformedPayloadSensor` occasionally emits tuples
that violate its advertised schema, exercising the Validate operator and
the error-quarantine path.
"""

from __future__ import annotations

import numpy as np

from repro.network.simclock import SimClock
from repro.pubsub.broker import BrokerNetwork
from repro.pubsub.registry import SensorMetadata
from repro.sensors.base import SimulatedSensor, ValueGenerator


class FlakySensor(SimulatedSensor):
    """A sensor that alternates between live and dead phases.

    While dead it is unpublished (leaves the network entirely, as the
    paper's plug-and-play dynamics require), then republishes when it
    recovers.  Attach once; the flapping is self-scheduled.
    """

    def __init__(
        self,
        metadata: SensorMetadata,
        generator: ValueGenerator,
        up_duration: float = 600.0,
        down_duration: float = 300.0,
        seed: int = 7,
    ) -> None:
        super().__init__(metadata, generator, seed=seed)
        if up_duration <= 0 or down_duration <= 0:
            raise ValueError("up/down durations must be positive")
        self.up_duration = up_duration
        self.down_duration = down_duration
        self.outages = 0
        self._flap_network: "BrokerNetwork | None" = None
        self._flap_clock: "SimClock | None" = None

    def attach(self, network: BrokerNetwork, clock: SimClock) -> None:
        super().attach(network, clock)
        self._flap_network = network
        self._flap_clock = clock
        clock.schedule(self.up_duration, self._go_down)

    def _go_down(self) -> None:
        if not self.attached:
            return
        assert self._flap_clock is not None
        self.outages += 1
        self.detach()
        self._flap_clock.schedule(self.down_duration, self._go_up)

    def _go_up(self) -> None:
        assert self._flap_network is not None and self._flap_clock is not None
        super().attach(self._flap_network, self._flap_clock)
        self._flap_clock.schedule(self.up_duration, self._go_down)


class MalformedPayloadSensor(SimulatedSensor):
    """Wraps a generator so a fraction of readings violate the schema.

    Corruptions: a numeric attribute becomes a string, or a required
    attribute disappears.  Downstream, a Validate operator (or the schema
    check in a warehouse loader) must quarantine these without stalling the
    stream.
    """

    def __init__(
        self,
        metadata: SensorMetadata,
        generator: ValueGenerator,
        corruption_rate: float = 0.1,
        seed: int = 7,
    ) -> None:
        if not (0.0 <= corruption_rate <= 1.0):
            raise ValueError(f"corruption_rate must be in [0,1]: {corruption_rate}")
        self.corruption_rate = corruption_rate
        self.corrupted = 0
        inner_rng = np.random.default_rng(seed ^ 0xBEEF)

        def corrupting(now: float, rng: np.random.Generator) -> "dict | None":
            payload = generator(now, rng)
            if payload is None:
                return None
            if inner_rng.random() >= self.corruption_rate:
                return payload
            self.corrupted += 1
            corrupted = dict(payload)
            names = list(corrupted)
            victim = names[int(inner_rng.integers(0, len(names)))]
            if inner_rng.random() < 0.5:
                # Wrong-typed value: strings become ints and vice versa,
                # so the result always violates the advertised schema.
                if isinstance(corrupted[victim], str):
                    corrupted[victim] = 0xBAD
                else:
                    corrupted[victim] = "CORRUPT"
            else:
                del corrupted[victim]
            return corrupted

        super().__init__(metadata, corrupting, seed=seed)
