"""Integration tests: failure injection across the stack.

Emergency management is the paper's motivating context — the system must
degrade gracefully when sensors lie, nodes die, and links drop.
"""

from repro.dataflow.ops import FilterSpec, TransformSpec, ValidateSpec
from repro.network.topology import Topology
from repro.pubsub.subscription import SubscriptionFilter
from repro.scenario import build_stack
from repro.sensors.faults import FlakySensor, MalformedPayloadSensor
from repro.sensors.physical import temperature_sensor
from repro.streams.tuple import SensorTuple
from repro.stt.event import SttStamp
from repro.stt.spatial import Point
from tests.builders import pipeline


class TestMalformedData:
    def test_validate_operator_quarantines_corrupt_stream(self):
        stack = build_stack(attach_fleet=False)
        base = temperature_sensor("bad-temp", Point(34.69, 135.50), "edge-0",
                                  frequency=1.0 / 60.0)
        sensor = MalformedPayloadSensor(base.metadata, base.generator,
                                        corruption_rate=0.4, seed=5)
        sensor.attach(stack.broker_network, stack.clock)

        deployment = stack.executor.deploy(pipeline(
            "guarded", ("guard", ValidateSpec(rules=(
                "coalesce(temperature, -9999) != -9999",
                "between(coalesce(temperature, -9999), -50, 60)",
            ))), match=SubscriptionFilter(sensor_ids=("bad-temp",))))
        stack.run_until(4 * 3600.0)

        guard_stats = deployment.process("guard").operator.stats
        # Corrupt tuples were quarantined, clean ones passed, no crash.
        assert guard_stats.errors > 0
        clean = deployment.collected("out")
        assert clean
        assert all(isinstance(t["temperature"], float) for t in clean)
        assert guard_stats.tuples_in == guard_stats.errors + len(clean)

    def test_projecting_a_missing_attribute_never_reaches_the_clock(self):
        """Readings that lack a projected attribute are quarantined by the
        deployed chain — batched or lone — instead of raising through
        ``OperatorProcess.receive`` into the clock callback."""
        stack = build_stack(attach_fleet=False)
        here = Point(34.69, 135.50)
        stack.broker_network.publish(
            temperature_sensor("dry-temp", here, "edge-0").metadata)

        deployment = stack.executor.deploy(pipeline(
            "projected", ("keep", FilterSpec("temperature > 0")),
            ("slim", TransformSpec(project=("temperature", "station"))),
            match=SubscriptionFilter(sensor_ids=("dry-temp",))))
        # keep+slim: column kernels at b>=4
        assert deployment.plan.units["keep+slim"].role == "chain"

        def reading(seq: int, **payload) -> SensorTuple:
            return SensorTuple(payload={"temperature": 21.0, **payload},
                               stamp=SttStamp(time=0.0, location=here),
                               source="dry-temp", seq=seq)

        publish = stack.broker_network
        # A uniform batch of 8, all without ``station``: column kernel.
        publish.publish_batch("dry-temp", [reading(i) for i in range(8)])
        # One offender among four: heterogeneous, so the row loop.
        publish.publish_batch("dry-temp", [
            reading(8, station="a"), reading(9),
            reading(10, station="a"), reading(11, station="a"),
        ])
        publish.publish_data("dry-temp", reading(12))
        stack.run_until(60.0)

        assert [t.seq for t in deployment.collected("out")] == [8, 10, 11]
        fused = deployment.process("keep+slim").operator
        assert fused.members[1].stats.errors == 10
        assert fused.members[1].stats.tuples_in == 13


class TestFlappingSensor:
    def test_stream_resumes_after_each_outage(self):
        stack = build_stack(attach_fleet=False)
        base = temperature_sensor("flappy", Point(34.69, 135.50), "edge-0",
                                  frequency=1.0 / 60.0)
        sensor = FlakySensor(base.metadata, base.generator,
                             up_duration=1800.0, down_duration=900.0)
        sensor.attach(stack.broker_network, stack.clock)

        deployment = stack.executor.deploy(pipeline(
            "flaps", ("keep", FilterSpec("temperature > -100"))))
        stack.run_until(3 * 5400.0)  # several up/down cycles

        assert sensor.outages >= 2
        received = deployment.collected("out")
        # Tuples from every up-phase, none from down-phases.
        up_phase_hits = {int(t.stamp.time // 2700.0) for t in received}
        assert len(up_phase_hits) >= 3


class TestNodeFailure:
    def test_messages_to_dead_node_dropped_not_crashing(self):
        stack = build_stack()
        deployment = stack.executor.deploy(pipeline(
            "resilient", ("keep", FilterSpec("temperature > -100"))))
        stack.run_until(3600.0)

        victim = deployment.process("keep").node_id
        stack.topology.node(victim).fail()
        stack.run_until(2 * 3600.0)
        assert stack.netsim.stats.messages_dropped > 0

        # Recovery: the node comes back and the stream continues.
        stack.topology.node(victim).recover()
        count = len(deployment.collected("out"))
        stack.run_until(3 * 3600.0)
        assert len(deployment.collected("out")) > count


class TestLinkFailure:
    def test_traffic_reroutes_around_dead_link(self):
        # A ring of 4 nodes: two routes between any pair.
        topo = Topology()
        for index in range(4):
            topo.add_node(f"n{index}", capacity=1000.0)
        for index in range(4):
            topo.add_link(f"n{index}", f"n{(index + 1) % 4}", latency=0.005)

        stack = build_stack(topology=topo, attach_fleet=False)
        sensor = temperature_sensor("ring-temp", Point(34.69, 135.50), "n0",
                                    frequency=1.0 / 60.0)
        sensor.attach(stack.broker_network, stack.clock)

        deployment = stack.executor.deploy(pipeline(
            "ring", match=SubscriptionFilter(sensor_ids=("ring-temp",))))
        stack.run_until(1800.0)
        before = len(deployment.collected("out"))
        assert before > 0

        # Kill the link the traffic was using; delivery must continue the
        # long way round the ring.
        sink_node = deployment.process("out").node_id
        if sink_node != "n0":
            path = stack.topology.route("n0", sink_node)
            stack.topology.link(path[0], path[1]).fail()
        stack.run_until(3600.0)
        assert len(deployment.collected("out")) > before
