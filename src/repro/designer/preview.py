"""Sample-based step-by-step debugging of a dataflow (demo part P1).

"By exploiting samples produced by the involved sensors, the user can
easily debug the developed dataflow."  :func:`replay_samples` deploys the
canvas as the executor would, on a throwaway simulator, replays the
samples on its clock and reads every node's rows off collector taps: so
triggers gate acquisition and blocking operators flush per interval,
exactly as deployed.  The offline batch baseline replays through it too.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.dataflow.graph import Dataflow
from repro.dsn.check import check
from repro.dsn.generate import dataflow_to_dsn
from repro.errors import DataflowError
from repro.network.topology import Topology
from repro.pubsub.registry import SensorRegistry
from repro.pubsub.stamping import backfill_stamp
from repro.scenario import build_stack
from repro.streams.base import ControlCommand
from repro.streams.tuple import SensorTuple

@dataclass
class SampleResult:
    """Per-node sample outputs plus the trigger commands issued."""

    outputs: dict[str, list[SensorTuple]] = field(default_factory=dict)
    #: The throwaway monitor's trigger commands, in issue order.
    commands: list[ControlCommand] = field(default_factory=list)

    def at(self, node_id: str) -> list[SensorTuple]:
        return self.outputs.get(node_id, [])


def _copy_topology(topology: Topology) -> Topology:
    """Fresh nodes and links with ``topology``'s ids, capacities and
    latencies (no load, no failures)."""
    fresh = Topology()
    for node in topology.nodes:
        fresh.add_node(node.node_id, capacity=node.capacity, region=node.region)
    for link in topology.links:
        fresh.add_link(link.a, link.b, latency=link.latency,
                       bandwidth=link.bandwidth)
    return fresh


def replay_samples(
    flow: Dataflow,
    samples: dict[str, list[SensorTuple]],
    registry: SensorRegistry,
    topology: Topology,
) -> SampleResult:
    """Deploy ``flow`` on a throwaway simulator and replay ``samples``.

    ``samples`` maps source node id -> tuples; each is published once, by
    its ``source`` sensor at its stamp time, so it reaches every source
    whose filter matches that sensor.  The stack copies ``topology`` and
    publishes ``registry``'s sensors; the flow deploys at the first stamp.
    Raises :class:`repro.errors.ValidationError` on an invalid flow and
    :class:`DataflowError` on a source with no batch or a sample from a
    sensor not in ``registry``.
    """
    # Taps would connect a dangling output: check the canvas as drawn (the
    # deploy checks the tapped copy).
    check(dataflow_to_dsn(flow, registry), registry).raise_if_invalid()
    missing = sorted(set(flow.sources) - set(samples))
    if missing:
        raise DataflowError(f"no sample batch for source(s): {missing}")
    replay = sorted({id(t): t for batch in samples.values() for t in batch}
                    .values(), key=lambda t: t.stamp.time)
    unknown = sorted({t.source for t in replay if t.source not in registry})
    if unknown:
        raise DataflowError(f"sample sensor(s) not published: {unknown}")

    stack = build_stack(topology=_copy_topology(topology), attach_fleet=False)
    for metadata in registry.all():
        stack.broker_network.publish(metadata)
    # Taps on a copy of the canvas (adding them touches only its sinks and
    # data edges).
    tapped = copy.copy(flow)
    tapped.sinks, tapped.data_edges = dict(flow.sinks), list(flow.data_edges)
    taps = {node_id: f"tap:{node_id}" for node_id in flow.sources}
    for node_id, node in flow.operators.items():
        if node.spec.has_output:  # triggers are control-only
            taps[node_id] = f"tap:{node_id}"
    for node_id, tap in taps.items():
        tapped.add_sink(node_id=tap)
        tapped.connect(node_id, tap)

    clock = stack.clock
    if replay:
        clock.run_until(replay[0].stamp.time)
    deployment = stack.executor.deploy(tapped)
    for tuple_ in replay:
        clock.schedule_at(tuple_.stamp.time, stack.broker_network.publish_batch,
                          tuple_.source, [tuple_])
    # Every process flushes once more after the last sample; 60 s more
    # lets rows still crossing a route arrive.
    flushes = sum(process.operator.interval or 0.0
                  for process in deployment.processes.values())
    clock.run_until((replay[-1].stamp.time if replay else clock.now)
                    + flushes + 60.0)

    result = SampleResult(commands=[
        record.facts["command"]
        for record in stack.executor.monitor.records("activate", "deactivate")
    ])
    for node_id, tap in taps.items():
        result.outputs[node_id] = list(deployment.collected(tap))
    for node_id in flow.sinks:  # a sink shows what its one feed's tap shows
        feed = flow.inputs_of(node_id)[0].source_id
        result.outputs[node_id] = list(result.outputs[feed])
    return result


def sample_from_sensors(
    flow: Dataflow,
    sensors: dict[str, object],
    count: int = 5,
    start: float = 0.0,
) -> dict[str, list[SensorTuple]]:
    """Build sample batches by probing simulated sensors.

    ``sensors`` maps source node id -> :class:`SimulatedSensor`; each is
    probed at its advertised cadence from ``start`` until it yields
    ``count`` readings (at most ``20 * count`` probes), without
    perturbing the live stream.
    """
    batches: dict[str, list[SensorTuple]] = {}
    for source_id, sensor in sensors.items():
        if source_id not in flow.sources:
            raise DataflowError(f"no source node {source_id!r} in the flow")
        batch: list[SensorTuple] = []
        now = start
        for _ in range(count * 20):
            if len(batch) == count:
                break
            payload = sensor.probe(now)
            if payload is not None:
                batch.append(backfill_stamp(payload, sensor.metadata, now=now,
                                            seq=len(batch)))
            now += sensor.metadata.period
        batches[source_id] = batch
    return batches
