"""Unit tests for on-the-fly modification (demo P3)."""

import pytest

from repro.dataflow.ops import AggregationSpec, FilterSpec
from repro.dsn.parse import parse_dsn
from repro.errors import LifecycleError, ValidationError
from repro.runtime.lifecycle import replace_operator_live
from tests.builders import pipeline


@pytest.fixture
def deployment(stack):
    return stack.executor.deploy(
        pipeline("live-edit", ("hot", FilterSpec("temperature > 24"))))


class TestReplaceOperator:
    def test_swap_changes_behaviour(self, stack, deployment):
        stack.run_until(13 * 3600.0)
        before = len(deployment.collected("out"))
        assert before > 0
        stats = deployment.process("hot").operator.stats
        seen = stats.tuples_in
        # Tighten the filter to something nothing passes.
        replace_operator_live(deployment, "hot", FilterSpec("temperature > 99"))
        stack.run_until(15 * 3600.0)
        assert len(deployment.collected("out")) == before
        # The service's counts continue across the swap.
        assert deployment.process("hot").operator.stats is stats
        assert stats.tuples_in > seen

    def test_process_keeps_node_and_routes(self, stack, deployment):
        node_before = deployment.process("hot").node_id
        routes_before = list(deployment.process("hot").routes)
        replace_operator_live(deployment, "hot", FilterSpec("temperature > 30"))
        assert deployment.process("hot").node_id == node_before
        assert deployment.process("hot").routes == routes_before

    def test_blocking_replacement_gets_timer(self, stack, deployment):
        replace_operator_live(
            deployment, "hot",
            AggregationSpec(interval=600.0, attributes=("temperature",),
                            function="AVG"),
        )
        stack.run_until(2 * 3600.0)
        collected = deployment.collected("out")
        assert collected
        assert "avg_temperature" in collected[0]

    def test_invalid_replacement_rejected_and_rolled_back(self, stack, deployment):
        # A deployment from DSN text is held to the same check.
        parsed = stack.executor.deploy(parse_dsn(
            deployment.program.render().replace('"live-edit"', '"parsed"')))
        for running in (deployment, parsed):
            with pytest.raises(ValidationError, match="ghost"):
                replace_operator_live(running, "hot", FilterSpec("ghost > 1"))
            # Original spec still in place and stream still works.
            assert running.program.service("hot").params["condition"] \
                == "temperature > 24"
        stack.run_until(14 * 3600.0)
        assert deployment.collected("out") and parsed.collected("out")
        replace_operator_live(parsed, "hot", FilterSpec("temperature > 30"))
        assert '"temperature > 30"' in parsed.program.render()

    def test_unknown_service_raises(self, deployment):
        with pytest.raises(LifecycleError):
            replace_operator_live(deployment, "ghost", FilterSpec("true"))

    def test_stopped_deployment_rejects_modification(self, deployment):
        deployment.teardown()
        with pytest.raises(LifecycleError):
            replace_operator_live(deployment, "hot", FilterSpec("true"))

    def test_monitor_logs_replacement(self, stack, deployment):
        replace_operator_live(deployment, "hot", FilterSpec("temperature > 30"))
        assert any(record.event == "operator-replaced"
                   for record in stack.executor.monitor.logs)
