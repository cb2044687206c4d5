"""StreamLoader: an event-driven ETL system for heterogeneous sensor data.

A full reproduction of the EDBT 2016 demo paper by Mesiti et al.: the
Table 1 stream-processing algebra over STT-stamped tuples, a distributed
publish-subscribe sensor layer, a conceptual dataflow designer with
consistency checks and sample debugging on a throwaway deployment of the
canvas, translation to the DSN/SCN
declarative-networking layer, workload-aware execution on a simulated
programmable network with live monitoring, and the Event Data Warehouse
and Sticker visualization sinks.

Quickstart::

    from repro import build_stack, osaka_scenario_flow

    stack = build_stack(hot=True)
    flow = osaka_scenario_flow(stack)
    deployment = stack.executor.deploy(flow)
    stack.run_until(16 * 3600.0)          # one virtual morning->afternoon
    print(stack.executor.monitor.render_dashboard())
    print(stack.warehouse.query().theme("weather/rain").count())
"""

from repro.scenario import Stack, build_stack, osaka_scenario_flow
from repro.dataflow import (
    FilterSpec,
    TransformSpec,
    ValidateSpec,
    VirtualPropertySpec,
    CullTimeSpec,
    CullSpaceSpec,
    AggregationSpec,
    JoinSpec,
    TriggerOnSpec,
    TriggerOffSpec,
)
from repro.designer import DesignerSession
from repro.dsn import DsnProgram, check, dataflow_to_dsn, parse_dsn, ScnController
from repro.network import NetworkSimulator, SimClock, Topology
from repro.pubsub import (
    BrokerNetwork,
    DiscoveryService,
    SensorMetadata,
    SensorRegistry,
    SubscriptionFilter,
)
from repro.runtime import Executor, Monitor
from repro.schema import Attribute, AttributeType, StreamSchema
from repro.sticker import StickerFeed
from repro.streams import SensorTuple
from repro.stt import Box, Point, SttStamp, Theme
from repro.warehouse import EventWarehouse

__version__ = "1.0.0"

__all__ = [
    "Stack",
    "build_stack",
    "osaka_scenario_flow",
    "DsnProgram",
    "FilterSpec",
    "TransformSpec",
    "ValidateSpec",
    "VirtualPropertySpec",
    "CullTimeSpec",
    "CullSpaceSpec",
    "AggregationSpec",
    "JoinSpec",
    "TriggerOnSpec",
    "TriggerOffSpec",
    "DesignerSession",
    "check",
    "dataflow_to_dsn",
    "parse_dsn",
    "ScnController",
    "NetworkSimulator",
    "SimClock",
    "Topology",
    "BrokerNetwork",
    "DiscoveryService",
    "SensorMetadata",
    "SensorRegistry",
    "SubscriptionFilter",
    "Executor",
    "Monitor",
    "Attribute",
    "AttributeType",
    "StreamSchema",
    "StickerFeed",
    "SensorTuple",
    "Box",
    "Point",
    "SttStamp",
    "Theme",
    "EventWarehouse",
    "__version__",
]
