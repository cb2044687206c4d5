"""Unit tests for dead-node evacuation (failure recovery)."""

import pytest

from repro.dataflow.ops import FilterSpec
from repro.scenario import build_stack
from tests.builders import pipeline


@pytest.fixture
def deployed():
    stack = build_stack(rebalance_interval=120.0)
    deployment = stack.executor.deploy(
        pipeline("evac", ("keep", FilterSpec("temperature > -100"))))
    stack.run_until(300.0)
    return stack, deployment


def fail_host(stack, deployment) -> str:
    """Fail the node hosting ``keep``; returns its id."""
    victim = deployment.process("keep").node_id
    stack.topology.node(victim).fail()
    return victim


class TestEvacuation:
    def test_process_moves_off_dead_node(self, deployed):
        stack, deployment = deployed
        victim = fail_host(stack, deployment)
        stack.run_until(600.0)  # at least one coordination round
        assert deployment.process("keep").node_id != victim
        changes = [c for c in stack.executor.monitor.records("reassigned")
                   if c.source == "evac:keep"]
        assert changes and "down" in changes[0].facts["reason"]

    def test_stream_recovers_after_evacuation(self, deployed):
        stack, deployment = deployed
        fail_host(stack, deployment)
        stack.run_until(900.0)
        count = len(deployment.collected("out"))
        stack.run_until(3600.0)
        assert len(deployment.collected("out")) > count

    def test_subscriptions_follow_evacuated_process(self, deployed):
        stack, deployment = deployed
        fail_host(stack, deployment)
        stack.run_until(600.0)
        new_node = deployment.process("keep").node_id
        for subscription in deployment.bindings["src"].subscriptions:
            assert subscription.node_id == new_node

    def test_no_evacuation_when_nowhere_to_go(self, deployed):
        stack, deployment = deployed
        for node in stack.topology.nodes:
            node.fail()
        stack.run_until(600.0)  # must not raise; processes stay put
        assert deployment.process("keep").node_id in stack.topology.node_ids

    def test_placement_map_records_reason(self, deployed):
        stack, deployment = deployed
        fail_host(stack, deployment)
        stack.run_until(600.0)
        assert "down" in deployment.placements["keep"].reason
