"""Small builders the suites share: a linear flow, a bare executor
stack, a scripted sensor and its readings, an attached sensor, a DSN
program."""

from typing import NamedTuple

from repro.dataflow.graph import Dataflow
from repro.dataflow.ops import OperatorSpec
from repro.dataflow.serialize import _filter_to_dict
from repro.dsn.ast import (
    DsnChannel, DsnControl, DsnFuse, DsnProgram, DsnService, DsnShard, DsnSlo,
    ServiceRole,
)
from repro.dsn.scn import ScnController
from repro.network.qos import QosPolicy
from repro.network.netsim import NetworkSimulator
from repro.network.simclock import SimClock
from repro.network.topology import Topology
from repro.pubsub.broker import BrokerNetwork
from repro.pubsub.registry import SensorMetadata
from repro.pubsub.subscription import SubscriptionFilter
from repro.runtime.executor import Executor
from repro.schema.schema import StreamSchema
from repro.streams.tuple import SensorTuple
from repro.stt.event import SttStamp
from repro.stt.spatial import Point

SITE = Point(34.69, 135.50)


def pipeline(name: str, *operators, sensor_type: str = "temperature",
             match: "SubscriptionFilter | None" = None, source: str = "src",
             sink: str = "out", sink_kind: str = "collector") -> Dataflow:
    """``source -> operators... -> sink``; each operator is a
    ``(node_id, spec)`` pair, and the source subscribes to ``match`` (by
    default, every sensor of ``sensor_type``)."""
    flow = Dataflow(name)
    upstream = flow.add_source(
        match or SubscriptionFilter(sensor_type=sensor_type), node_id=source)
    for node_id, spec in operators:
        flow.connect(upstream, flow.add_operator(spec, node_id=node_id))
        upstream = node_id
    flow.connect(upstream, flow.add_sink(sink_kind, node_id=sink))
    return flow


def sensor_metadata(sensor_id: str, sensor_type: str = "temperature",
                    fields: "dict | None" = None, frequency: float = 1.0,
                    node_id: str = "hub") -> SensorMetadata:
    return SensorMetadata(
        sensor_id=sensor_id, sensor_type=sensor_type,
        schema=StreamSchema.build(
            fields or {"temperature": "float", "station": "str"},
            themes=(f"weather/{sensor_type}",)),
        frequency=frequency, location=SITE, node_id=node_id)


def executor_stack(topology: "Topology | None" = None, *metadata,
                   **executor_options):
    """``(netsim, network, executor)`` over ``topology`` (one node,
    ``hub``, by default) with ``metadata`` published."""
    if topology is None:
        topology = Topology()
        topology.add_node("hub")
    netsim = NetworkSimulator(topology=topology)
    network = BrokerNetwork(netsim=netsim)
    executor = Executor(netsim, network, scn=ScnController(topology),
                        **executor_options)
    for sensor in metadata:
        network.publish(sensor)
    return netsim, network, executor


def reading(sensor_id: str, seq: int, time: float, **payload) -> SensorTuple:
    return SensorTuple(payload=payload, stamp=SttStamp(time=time, location=SITE),
                       source=sensor_id, seq=seq)


def weather_reading(seq: int = 0, temperature=20.0, humidity=0.6,
                    station="station-1", time: "float | None" = None,
                    lat: float = 34.69, lon: float = 135.50,
                    themes: tuple = ("weather/temperature",),
                    source: str = "sensor-1", **extra) -> SensorTuple:
    """A weather reading; an attribute given as ``...`` is left out."""
    payload = {"temperature": temperature, "humidity": humidity,
               "station": station, **extra}
    return SensorTuple(
        payload={k: v for k, v in payload.items() if v is not ...},
        stamp=SttStamp(time=float(seq) if time is None else time,
                       location=Point(lat, lon), themes=themes),
        source=source, seq=seq)


def tuples_from(values, start_seq: int = 0) -> list:
    """Temperature readings of sensor ``gen``, one a second from
    ``start_seq``, cycling through stations s0..s2."""
    return [reading("gen", i, float(i), temperature=value, station=f"s{i % 3}")
            for i, value in enumerate(values, start=start_seq)]


def script_readings(netsim, network, sensor_id: str, end: float,
                    payload_of, every: float = 2.0) -> None:
    """Publish ``payload_of(seq)`` every ``every`` seconds until ``end``:
    the same input for every run."""
    def publish(seq: int):
        network.publish_data(sensor_id, reading(
            sensor_id, seq, netsim.clock.now, **payload_of(seq)))

    for seq in range(int(end / every)):
        netsim.clock.schedule(every * seq + every / 2,
                              lambda seq=seq: publish(seq))


def attached(sensor, node: str = "n1", batch=None):
    """Attach ``sensor`` to a fresh in-process broker on its own clock;
    returns the clock, the broker and what a catch-all subscriber on
    ``node`` (its channel declaring ``batch``) collects."""
    clock, net, seen = SimClock(), BrokerNetwork(), []
    net.subscribe(node, SubscriptionFilter(), seen.append, batch=batch)
    sensor.attach(net, clock)
    return clock, net, seen


class Dormant(NamedTuple):
    """A source that starts paused (trigger-gated)."""

    filter: SubscriptionFilter


def dsn(*parts, **nodes) -> DsnProgram:
    """DSN program ``p``.  ``nodes`` maps a service name to a source filter
    (``Dormant`` for a paused one), an operator spec, a ``(kind, params)``
    operator or a sink kind; ``parts`` are ``"a > b"`` channels (``"a >
    b:1"`` into port 1), ``"a ~ b"`` controls, services and clauses."""
    program = DsnProgram(name="p")
    for name, node in nodes.items():
        if isinstance(node, (SubscriptionFilter, Dormant)):
            active = isinstance(node, SubscriptionFilter)
            service = DsnService(ServiceRole.SOURCE, name, "sensor-stream", {
                "filter": _filter_to_dict(node if active else node.filter),
                "active": active})
        elif isinstance(node, str):
            service = DsnService(ServiceRole.SINK, name, node,
                                 {"config": {}}, QosPolicy())
        else:
            if isinstance(node, OperatorSpec):
                params = node.to_dict()
                node = (params.pop("kind"), params)
            service = DsnService(ServiceRole.OPERATOR, name, *node)
        program.services.append(service)
    lists = {DsnService: program.services, DsnChannel: program.channels,
             DsnControl: program.controls, DsnShard: program.shards,
             DsnFuse: program.fuses, DsnSlo: program.slos}
    for part in parts:
        if isinstance(part, str):
            source, arrow, target = part.split()
            target, _, port = target.partition(":")
            part = (DsnControl(source, target) if arrow == "~"
                    else DsnChannel(source, target, int(port or 0)))
        lists[type(part)].append(part)
    return program
