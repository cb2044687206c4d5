"""Distributed publish-subscribe sensor management.

The paper: *"Sensors are handled through a distributed publish-subscribe
system.  Each time a sensor is published, its type, schema, and frequency
of data generation are made available to subscribers."* and *"whenever a
sensor is not able to produce the spatio-temporal information of the
produced data, this information is added by the Publish-Subscribe system"*.

One broker runs per network node; sensor advertisements propagate through
the broker overlay (costed on the simulated links), subscriptions are
matched by type/theme/area, and data tuples are routed from the sensor's
managing node to every active subscriber.  Subscriptions can be paused and
resumed — the hook the Trigger operators' control plane uses.
"""

from repro.pubsub.registry import SensorMetadata, SensorRegistry
from repro.pubsub.subscription import (
    BatchingPolicy, Subscription, SubscriptionFilter,
)
from repro.pubsub.broker import BrokerNetwork, Broker
from repro.pubsub.discovery import DiscoveryService
from repro.pubsub.stamping import backfill_stamp

__all__ = [
    "BatchingPolicy",
    "SensorMetadata",
    "SensorRegistry",
    "Subscription",
    "SubscriptionFilter",
    "BrokerNetwork",
    "Broker",
    "DiscoveryService",
    "backfill_stamp",
]
