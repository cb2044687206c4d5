"""Unit tests for the executor: deploy, wire, control, rebalance."""

import inspect

import pytest

from repro.dataflow.graph import Dataflow
from repro.dataflow.ops import AggregationSpec, FilterSpec, TriggerOnSpec
from repro.dsn.generate import dataflow_to_dsn
from repro.errors import DeploymentError, LifecycleError
from repro.pubsub.subscription import SubscriptionFilter
from repro.runtime.lifecycle import DeploymentState
from repro.scenario import build_stack


@pytest.fixture
def stack():
    return build_stack(hot=True)


def simple_flow(name="simple") -> Dataflow:
    flow = Dataflow(name)
    src = flow.add_source(SubscriptionFilter(sensor_type="temperature"),
                          node_id="src")
    hot = flow.add_operator(FilterSpec("temperature > 24"), node_id="hot")
    sink = flow.add_sink("collector", node_id="out")
    flow.connect(src, hot)
    flow.connect(hot, sink)
    return flow


class TestDeploy:
    def test_deploy_creates_processes(self, stack):
        deployment = stack.executor.deploy(simple_flow())
        assert deployment.state is DeploymentState.RUNNING
        assert set(deployment.processes) == {"hot", "out"}
        assert set(deployment.bindings) == {"src"}

    def test_data_flows_to_collector(self, stack):
        deployment = stack.executor.deploy(simple_flow())
        stack.run_until(14 * 3600.0)  # includes a hot afternoon
        collected = deployment.collected("out")
        assert collected
        assert all(t["temperature"] > 24 for t in collected)

    def test_duplicate_name_rejected(self, stack):
        stack.executor.deploy(simple_flow())
        with pytest.raises(DeploymentError, match="already running"):
            stack.executor.deploy(simple_flow())

    def test_redeploy_after_teardown_allowed(self, stack):
        deployment = stack.executor.deploy(simple_flow())
        deployment.teardown()
        stack.executor.deploy(simple_flow())

    def test_warehouse_sink_requires_warehouse(self, stack):
        from repro.runtime.executor import Executor

        bare = Executor(stack.netsim, stack.broker_network)
        flow = Dataflow("needs-wh")
        src = flow.add_source(SubscriptionFilter(sensor_type="temperature"),
                              node_id="src")
        sink = flow.add_sink("warehouse", node_id="dw")
        flow.connect(src, sink)
        with pytest.raises(DeploymentError, match="warehouse"):
            bare.deploy(flow)

    def test_kernel_choice_is_not_a_deploy_option(self, stack):
        with pytest.raises(TypeError, match="columnar"):
            stack.executor.deploy(simple_flow(), columnar=False)

    def test_fusion_is_not_a_deploy_option(self, stack):
        # Fused or not is the plan's call (planner or explicit clauses).
        assert "fuse" not in inspect.signature(stack.executor.deploy).parameters
        assert "fuse" not in inspect.signature(dataflow_to_dsn).parameters

    def test_collected_unknown_sink_raises(self, stack):
        deployment = stack.executor.deploy(simple_flow())
        with pytest.raises(DeploymentError):
            deployment.collected("ghost")

    def test_multiple_deployments_coexist(self, stack):
        a = stack.executor.deploy(simple_flow("flow-a"))
        b = stack.executor.deploy(simple_flow("flow-b"))
        stack.run_until(13 * 3600.0)
        assert a.collected("out") and b.collected("out")


class TestPauseResume:
    def test_pause_stops_traffic(self, stack):
        deployment = stack.executor.deploy(simple_flow())
        stack.run_until(3600.0)
        deployment.pause()
        count = len(deployment.collected("out"))
        suppressed_before = stack.broker_network.data_messages_suppressed
        stack.run_until(7200.0)
        assert len(deployment.collected("out")) == count
        assert stack.broker_network.data_messages_suppressed > suppressed_before
        assert deployment.state is DeploymentState.PAUSED

    def test_resume_restores(self, stack):
        deployment = stack.executor.deploy(simple_flow())
        stack.run_until(11 * 3600.0)
        deployment.pause()
        stack.run_until(12 * 3600.0)
        deployment.resume()
        count = len(deployment.collected("out"))
        stack.run_until(15 * 3600.0)  # hot hours
        assert len(deployment.collected("out")) > count

    def test_illegal_transitions_raise(self, stack):
        deployment = stack.executor.deploy(simple_flow())
        with pytest.raises(LifecycleError):
            deployment.resume()
        deployment.pause()
        with pytest.raises(LifecycleError):
            deployment.pause()


class TestTeardown:
    def test_teardown_releases_everything(self, stack):
        deployment = stack.executor.deploy(simple_flow())
        stack.run_until(3600.0)
        deployment.teardown()
        assert deployment.state is DeploymentState.STOPPED
        for node in stack.topology.nodes:
            assert not any(
                pid.startswith("simple:") for pid in node.processes
            )
        count = len(deployment.collected("out"))
        stack.run_until(7200.0)
        assert len(deployment.collected("out")) == count

    def test_teardown_idempotent(self, stack):
        deployment = stack.executor.deploy(simple_flow())
        deployment.teardown()
        deployment.teardown()


class TestTriggerControl:
    def trigger_flow(self, stack):
        from repro.scenario import osaka_scenario_flow

        return osaka_scenario_flow(stack)

    def test_gated_sources_start_paused(self, stack):
        deployment = stack.executor.deploy(self.trigger_flow(stack))
        for name in ("rain", "tweets", "traffic"):
            assert all(not s.active
                       for s in deployment.bindings[name].subscriptions)

    def test_trigger_activates_when_hot(self, stack):
        deployment = stack.executor.deploy(self.trigger_flow(stack))
        stack.run_until(14 * 3600.0)
        assert any(c.activate for c in stack.executor.monitor.control_log)
        for name in ("rain", "tweets", "traffic"):
            assert all(s.active
                       for s in deployment.bindings[name].subscriptions)

    def test_trigger_silent_when_cool(self):
        cool = build_stack(hot=False)
        from repro.scenario import osaka_scenario_flow

        deployment = cool.executor.deploy(osaka_scenario_flow(cool))
        cool.run_until(14 * 3600.0)
        assert not cool.executor.monitor.control_log
        assert len(cool.warehouse) == 0


class TestRebalance:
    def test_overload_causes_migration(self):
        stack = build_stack(rebalance_interval=120.0)
        deployment = stack.executor.deploy(simple_flow("hotspot"))
        stack.run_until(600.0)  # let live rates establish
        # A background hog overloads the node hosting the filter; the SCN
        # must move the filter away at the next coordination round.
        hot_node = deployment.process("hot").node_id
        stack.topology.node(hot_node).register_process("hog", demand=5000.0)
        stack.run_until(1200.0)
        changes = stack.executor.monitor.assignment_log
        assert changes
        assert changes[0].process_id.startswith("hotspot:")
        assert changes[0].from_node == hot_node
        assert deployment.process("hot").node_id != hot_node or any(
            c.process_id == "hotspot:hot" for c in changes
        )

    def test_stream_continues_after_migration(self):
        stack = build_stack(rebalance_interval=120.0)
        deployment = stack.executor.deploy(simple_flow("hotspot"))
        stack.run_until(11 * 3600.0)
        hot_node = deployment.process("hot").node_id
        stack.topology.node(hot_node).register_process("hog", demand=5000.0)
        stack.run_until(12 * 3600.0)
        count = len(deployment.collected("out"))
        stack.run_until(15 * 3600.0)  # hot afternoon
        assert len(deployment.collected("out")) > count


class TestReplacementDemandAccounting:
    """Regression: re-placing shard processes must book their deploy-time
    demand, not the live rate estimate.

    A process displaced before the monitor's first rate sample reads
    ``rate.rate == 0.0``; booking that zero let every displaced sibling
    look weightless, so ``replace_service`` packed them all onto the same
    least-loaded node and double-booked its capacity for every later
    placement decision.  The fix floors the booking at the deploy-time
    ``placement_demand`` estimate.
    """

    FREQUENCY = 16.0   # Hz -> conceptual demand 16, 4 cost-units per shard

    def _deploy(self):
        from repro.dsn.scn import ScnController
        from repro.network.netsim import NetworkSimulator
        from repro.network.topology import Topology
        from repro.pubsub.broker import BrokerNetwork
        from repro.pubsub.registry import SensorMetadata
        from repro.runtime.executor import Executor
        from repro.schema.schema import StreamSchema
        from repro.stt.spatial import Point

        netsim = NetworkSimulator(topology=Topology.star(leaf_count=3))
        netsim.topology.node("hub").capacity = 100.0
        for leaf in ("edge-0", "edge-1", "edge-2"):
            netsim.topology.node(leaf).capacity = 10.0
        network = BrokerNetwork(netsim=netsim)
        executor = Executor(netsim, network,
                            scn=ScnController(netsim.topology))
        network.publish(SensorMetadata(
            sensor_id="fast-temp",
            sensor_type="temperature",
            schema=StreamSchema.build(
                {"temperature": "float", "station": "str"},
                themes=("weather/temperature",),
            ),
            frequency=self.FREQUENCY,
            location=Point(34.69, 135.50),
            node_id="hub",
        ))

        flow = Dataflow("demand-accounting")
        src = flow.add_source(SubscriptionFilter(sensor_type="temperature"),
                              node_id="src")
        agg = flow.add_operator(
            AggregationSpec(interval=600.0, attributes=("temperature",),
                            function="AVG", group_by="station"),
            node_id="agg",
        )
        out = flow.add_sink("collector", node_id="out")
        flow.connect(src, agg)
        flow.connect(agg, out)
        deployment = executor.deploy(flow, shards={"agg": 4})
        return netsim, executor, deployment

    def test_displaced_shards_spread_instead_of_packing(self):
        netsim, executor, deployment = self._deploy()
        group = deployment.shard_groups["agg"]
        first, second = group.members[0], group.members[1]
        # Co-locate two shards on one small leaf (and clear everything
        # else off it) so one kill displaces both before any rate sample.
        for process in deployment.processes.values():
            if process not in (first, second) and process.node_id == "edge-0":
                process.move_to("hub")
        first.move_to("edge-0")
        second.move_to("edge-0")
        assert first.rate.rate == 0.0   # pre-sampling: the bug's trigger

        # A background hog prices the big hub out of contention: the two
        # displaced shards must fight over the 10-unit leaves.
        netsim.topology.node("hub").register_process("hog", demand=95.0)
        netsim.kill_node("edge-0")
        executor._replace_processes(deployment, "edge-0")

        assert first.node_id in ("edge-1", "edge-2")
        assert second.node_id in ("edge-1", "edge-2")
        # The first replacement's booking must be visible to the second:
        # two 4-unit shards cannot share one 10-unit leaf with the bug's
        # zero-demand booking claiming otherwise.
        assert first.node_id != second.node_id
        for leaf in ("edge-1", "edge-2"):
            node = netsim.topology.node(leaf)
            assert node.load <= node.capacity, (
                f"{leaf} over-booked: {node.load} > {node.capacity}"
            )

    def test_move_to_books_placement_demand_before_first_sample(self):
        netsim, _, deployment = self._deploy()
        member = deployment.shard_groups["agg"].members[0]
        assert member.placement_demand == self.FREQUENCY / 4
        node = netsim.topology.node("edge-1")
        before = node.load
        member.move_to("edge-1")
        assert member.process_id in node.processes
        assert node.load - before == member.placement_demand
