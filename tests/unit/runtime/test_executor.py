"""Unit tests for the executor: deploy, wire, control, re-placement."""

import inspect

import pytest

from repro.dataflow.ops import AggregationSpec, FilterSpec
from repro.dsn.ast import DsnProgram, DsnSlo
from repro.dsn.generate import dataflow_to_dsn
from repro.dsn.parse import parse_dsn
from repro.errors import DeploymentError, LifecycleError, ValidationError
from repro.network.topology import Topology
from repro.runtime.executor import Executor
from repro.runtime.lifecycle import DeploymentState
from repro.scenario import build_stack, osaka_scenario_flow, sharded_aggregation_flow
from tests.builders import executor_stack, pipeline, sensor_metadata


def simple_flow(name="simple") -> DsnProgram:
    return pipeline(name, ("hot", FilterSpec("temperature > 24")))


@pytest.fixture
def deployment(stack):
    return stack.executor.deploy(simple_flow())


class TestDeploy:
    def test_deploy_creates_processes(self, deployment):
        assert deployment.state is DeploymentState.RUNNING
        assert set(deployment.processes) == {"hot", "out"}
        assert set(deployment.bindings) == {"src"}

    def test_data_flows_to_collector(self, stack, deployment):
        stack.run_until(14 * 3600.0)  # includes a hot afternoon
        collected = deployment.collected("out")
        assert collected
        assert all(t["temperature"] > 24 for t in collected)

    def test_duplicate_name_rejected(self, stack):
        stack.executor.deploy(simple_flow())
        with pytest.raises(DeploymentError, match="already running"):
            stack.executor.deploy(simple_flow())

    def test_redeploy_after_teardown_allowed(self, stack, deployment):
        deployment.teardown()
        stack.executor.deploy(simple_flow())

    def test_warehouse_sink_requires_warehouse(self, stack):
        """A deploy the executor cannot host is refused before anything
        is placed, and the corrected program then deploys."""
        bare = Executor(stack.netsim, stack.broker_network)
        hot = ("hot", FilterSpec("temperature > 24"))
        fixed = pipeline("needs-wh", hot)
        slo = DsnSlo("needs-wh", "watermark_lag", "<", 900.0)
        cases = {"warehouse": pipeline("needs-wh", hot, sink="dw",
                                       sink_kind="warehouse"),
                 "observability": dataflow_to_dsn(fixed, slos=[slo])}

        def state():
            return ([dict(node._demands) for node in stack.topology.nodes],
                    [sub.subscription_id for sub
                     in stack.broker_network.iter_subscriptions()],
                    list(bare.monitor.logs))

        for reason, rejected in cases.items():
            before = state()
            with pytest.raises(DeploymentError, match=reason):
                bare.deploy(rejected)
            assert state() == before
            bare.deploy(fixed).teardown()

    def test_kernel_choice_is_not_a_deploy_option(self, stack):
        with pytest.raises(TypeError, match="columnar"):
            stack.executor.deploy(simple_flow(), columnar=False)

    def test_fusion_is_not_a_deploy_option(self, stack):
        # Fused or not is the plan's call (planner or explicit clauses).
        assert "fuse" not in inspect.signature(stack.executor.deploy).parameters
        assert "fuse" not in inspect.signature(dataflow_to_dsn).parameters

    def test_shards_apply_to_a_parsed_program(self, stack):
        program = parse_dsn(sharded_aggregation_flow(stack).render())
        deployment = stack.executor.deploy(program, shards={"station-avg": 3})
        assert len(deployment.shard_groups["station-avg"].members) == 3
        assert not program.shards  # written on the deployment's own copy
        # A malformed operator is left to the check, which reports it.
        deployment.teardown()
        text = program.render()
        for bad in (text.replace("interval = 300.0", "interval = NaN"),
                    text.replace('param attributes = ["temperature"];', "")):
            with pytest.raises(ValidationError, match="station-avg"):
                stack.executor.deploy(parse_dsn(bad), shards=3)

    def test_collected_unknown_sink_raises(self, deployment):
        with pytest.raises(DeploymentError):
            deployment.collected("ghost")

    def test_multiple_deployments_coexist(self, stack):
        a = stack.executor.deploy(simple_flow("flow-a"))
        b = stack.executor.deploy(simple_flow("flow-b"))
        stack.run_until(13 * 3600.0)
        assert a.collected("out") and b.collected("out")


class TestPauseResume:
    def test_pause_stops_traffic(self, stack, deployment):
        stack.run_until(3600.0)
        deployment.pause()
        count = len(deployment.collected("out"))
        suppressed_before = stack.broker_network.data_messages_suppressed
        stack.run_until(7200.0)
        assert len(deployment.collected("out")) == count
        assert stack.broker_network.data_messages_suppressed > suppressed_before
        assert deployment.state is DeploymentState.PAUSED

    def test_resume_restores(self, stack, deployment):
        stack.run_until(11 * 3600.0)
        deployment.pause()
        stack.run_until(12 * 3600.0)
        deployment.resume()
        count = len(deployment.collected("out"))
        stack.run_until(15 * 3600.0)  # hot hours
        assert len(deployment.collected("out")) > count

    def test_illegal_transitions_raise(self, deployment):
        with pytest.raises(LifecycleError):
            deployment.resume()
        deployment.pause()
        with pytest.raises(LifecycleError):
            deployment.pause()


class TestTeardown:
    def test_teardown_releases_everything(self, stack, deployment):
        stack.run_until(3600.0)
        deployment.teardown()
        assert deployment.state is DeploymentState.STOPPED
        for node in stack.topology.nodes:
            assert not any(pid.startswith("simple:") for pid in node.processes)
        count = len(deployment.collected("out"))
        stack.run_until(7200.0)
        assert len(deployment.collected("out")) == count

    def test_teardown_idempotent(self, deployment):
        deployment.teardown()
        deployment.teardown()


class TestTriggerControl:
    def trigger_flow(self, stack):
        return osaka_scenario_flow(stack)

    def test_gated_sources_start_paused(self, stack):
        deployment = stack.executor.deploy(self.trigger_flow(stack))
        for name in ("rain", "tweets", "traffic"):
            assert all(not s.active
                       for s in deployment.bindings[name].subscriptions)

    def test_trigger_activates_when_hot(self, stack):
        deployment = stack.executor.deploy(self.trigger_flow(stack))
        stack.run_until(14 * 3600.0)
        assert stack.executor.monitor.records("activate")
        for name in ("rain", "tweets", "traffic"):
            assert all(s.active
                       for s in deployment.bindings[name].subscriptions)

    def test_trigger_silent_when_cool(self):
        cool = build_stack(hot=False)
        deployment = cool.executor.deploy(osaka_scenario_flow(cool))
        cool.run_until(14 * 3600.0)
        assert not cool.executor.monitor.records("activate")
        assert len(cool.warehouse) == 0


class TestReplacementDemandAccounting:
    """Re-placed shard processes book their deploy-time demand: one
    displaced before the first rate sample reads ``rate.rate == 0.0``,
    and booking that zero would pack every displaced sibling onto the
    least-loaded node (DESIGN.md §13, placement by workload)."""

    FREQUENCY = 16.0   # Hz -> conceptual demand 16, 4 cost-units per shard

    def _deploy(self):
        topology = Topology.star(leaf_count=3)
        topology.node("hub").capacity = 100.0
        for leaf in ("edge-0", "edge-1", "edge-2"):
            topology.node(leaf).capacity = 10.0
        netsim, _, executor = executor_stack(
            topology, sensor_metadata("fast-temp", frequency=self.FREQUENCY))
        deployment = executor.deploy(pipeline(
            "demand-accounting", ("agg", AggregationSpec(
                interval=600.0, attributes=("temperature",), function="AVG",
                group_by="station"))), shards={"agg": 4})
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
                f"{leaf} over-booked: {node.load} > {node.capacity}")

    def test_move_to_books_placement_demand_before_first_sample(self):
        netsim, _, deployment = self._deploy()
        member = deployment.shard_groups["agg"].members[0]
        assert member.placement_demand == self.FREQUENCY / 4
        node = netsim.topology.node("edge-1")
        before = node.load
        member.move_to("edge-1")
        assert member.process_id in node.processes
        assert node.load - before == member.placement_demand
