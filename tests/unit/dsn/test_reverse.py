"""Unit tests for DSN -> dataflow reverse translation."""

from repro.dsn.generate import dataflow_to_dsn, dsn_to_dataflow
from repro.dsn.parse import parse_dsn
from repro.scenario import build_stack
from tests.unit.dsn.test_check import row
from tests.unit.dsn.test_generate import scenario_flow


class TestReverseTranslation:
    def test_full_round_trip(self, registry):
        program = dataflow_to_dsn(scenario_flow(), registry)
        flow = dsn_to_dataflow(program)
        again = dataflow_to_dsn(flow, registry)
        assert again.render() == program.render()

    def test_round_trip_through_text(self, registry):
        text = dataflow_to_dsn(scenario_flow(), registry).render()
        flow = dsn_to_dataflow(parse_dsn(text))
        assert dataflow_to_dsn(flow, registry).render() == text

    def test_structure_reconstructed(self, registry):
        program = dataflow_to_dsn(scenario_flow(), registry)
        flow = dsn_to_dataflow(program)
        assert set(flow.sources) == {"temp", "rain"}
        assert set(flow.operators) == {"trig", "torrential"}
        assert set(flow.sinks) == {"dw"}
        assert len(flow.control_edges) == 1
        assert not flow.sources["rain"].initially_active
        assert flow.sources["temp"].initially_active

    def test_reconstructed_flow_is_deployable(self, registry):
        stack = build_stack()
        program = dataflow_to_dsn(scenario_flow(), stack.broker_network.registry)
        flow = dsn_to_dataflow(program)
        deployment = stack.executor.deploy(flow)
        stack.run_until(3600.0)
        assert deployment.process("trig").operator.stats.tuples_in > 0

    test_invalid_program_rejected = row("channel-undeclared")
