"""Integration tests: QoS admission and segmentation end to end."""

import pytest

from repro.dataflow.ops import FilterSpec
from repro.dsn.ast import DsnProgram
from repro.dsn.scn import PlacementDecision, ScnController
from repro.errors import ScnError
from repro.network.netsim import NetworkSimulator
from repro.network.qos import QosPolicy
from repro.network.topology import Topology
from repro.pubsub.subscription import SubscriptionFilter
from repro.scenario import build_stack
from repro.sensors.physical import temperature_sensor
from repro.stt.spatial import Point


def qos_flow(max_latency: float) -> DsnProgram:
    flow = DsnProgram("qos-flow")
    src = flow.add_source(SubscriptionFilter(sensor_type="temperature"),
                          node_id="src")
    keep = flow.add_operator(FilterSpec("temperature > -100"), node_id="keep")
    sink = flow.add_sink(
        "collector",
        qos=QosPolicy(qos_class="real-time", max_latency=max_latency),
        node_id="out",
    )
    flow.connect(src, keep)
    flow.connect(keep, sink)
    return flow


class TestQosAdmission:
    def test_loose_budget_deploys_and_runs(self):
        stack = build_stack()
        deployment = stack.executor.deploy(qos_flow(max_latency=1.0))
        stack.run_until(13 * 3600.0)
        assert deployment.collected("out")

    @staticmethod
    def _spread_stack():
        """A stack whose SCN pins the filter to node-0 and the sink to
        node-3 (3 hops x 50 ms), so the sink channel crosses links and QoS
        admission bites."""
        class SpreadingScn(ScnController):
            def _score_nodes(self, service, upstream, demand, projected):
                node = "node-3" if service.name == "out" else "node-0"
                return PlacementDecision(service.name, node, 0.0, "pinned")

        topo = Topology.line(4, latency=0.05)
        stack = build_stack(topology=topo, attach_fleet=False,
                            scn=SpreadingScn(topo))
        sensor = temperature_sensor("lonely", Point(34.69, 135.50), "node-0")
        sensor.attach(stack.broker_network, stack.clock)
        return stack

    def test_impossible_budget_rejected_at_deploy(self):
        stack = self._spread_stack()
        with pytest.raises(ScnError, match="QoS admission failed"):
            stack.executor.deploy(qos_flow(max_latency=0.01))

    def test_rejected_deploy_leaves_no_residue(self):
        stack = self._spread_stack()
        with pytest.raises(ScnError):
            stack.executor.deploy(qos_flow(max_latency=0.01))
        assert "qos-flow" not in stack.executor.deployments
        for node in stack.topology.nodes:
            assert not any(p.startswith("qos-flow:") for p in node.processes)
        # Relaxing the budget lets the same flow deploy cleanly.
        deployment = stack.executor.deploy(qos_flow(max_latency=10.0))
        assert deployment.state.value == "running"


class TestSegmentation:
    def test_large_payloads_segmented(self):
        # A tiny segment size multiplies transmission delay; confirm the
        # QoS segmentation parameter reaches the wire.
        sim = NetworkSimulator(topology=Topology.line(2, latency=0.0,
                                                      bandwidth=1000.0))
        arrival = {}
        chunky = QosPolicy(segment_bytes=100)
        sim.send("node-0", "node-1", "x", 1000.0,
                 lambda _p: arrival.setdefault("chunky", sim.clock.now),
                 qos=chunky)
        sim.clock.run()
        smooth = QosPolicy(segment_bytes=10_000)
        sim2 = NetworkSimulator(topology=Topology.line(2, latency=0.0,
                                                       bandwidth=1000.0))
        sim2.send("node-0", "node-1", "x", 1000.0,
                  lambda _p: arrival.setdefault("smooth", sim2.clock.now),
                  qos=smooth)
        sim2.clock.run()
        # Same bytes, same bandwidth: transmission dominates and is equal;
        # segmentation must not lose or duplicate the payload.
        assert arrival["chunky"] == pytest.approx(arrival["smooth"])
