"""Integration test: demo walkthrough part P2.

"Once the dataflow is consistent, we will show its translation in the
DSN/SCN language and deployment at network level.  Then, we will monitor
its execution ... Finally, we will show how the data processed by means of
the dataflow can be stored in the Event Data Warehouse or visualized in the
Sticker visualization tool."
"""

import pytest

from repro.designer.session import DesignerSession
from repro.dataflow.ops import FilterSpec
from repro.dsn.parse import parse_dsn
from repro.errors import ValidationError
from repro.sticker.render import render_series


@pytest.fixture
def session(stack):
    session = DesignerSession(stack.executor, name="p2")
    temp = session.add_source("osaka-temp-umeda", node_id="temp")
    hot = session.add_operator(FilterSpec("temperature > 24"), node_id="hot")
    dw = session.add_sink("warehouse", node_id="dw")
    viz = session.add_sink("visualization", node_id="viz")
    # Warehouse the filtered stream, visualize the raw one.
    session.connect(temp, hot)
    session.connect(hot, dw)
    session.connect(temp, viz)
    return session


class TestP2Walkthrough:
    def test_translation_shown_and_parseable(self, session):
        program = session.translate()
        text = program.render()
        # The textual artifact the demo displays, round-trippable.
        assert 'service operator "hot" kind "filter"' in text
        assert parse_dsn(text).render() == text

    def test_deployment_at_network_level(self, stack, session):
        handle = session.deploy()
        placements = handle.deployment.assignments()
        assert set(placements) == {"hot", "dw", "viz"}
        assert all(node in stack.topology.node_ids
                   for node in placements.values())

    def test_monitoring_during_execution(self, stack, session):
        handle = session.deploy()
        stack.run_until(15 * 3600.0)
        report = stack.executor.monitor.report()
        assert report["operation_rates"]["p2/p2:hot"] is not None
        dashboard = stack.executor.monitor.render_dashboard()
        assert "p2/p2:hot" in dashboard
        annotations = handle.annotations()
        assert annotations["hot"]["tuples_in"] > 0

    def test_warehouse_receives_processed_data(self, stack, session):
        session.deploy()
        stack.run_until(15 * 3600.0)
        assert len(stack.warehouse) > 0
        # Only above-threshold readings were warehoused.
        values = stack.warehouse.query().measure_values("temperature")
        assert values.min() > 24.0
        # And they roll up by hour like the analyst would ask.
        rows = stack.warehouse.query().rollup_time(
            "hour", measure="temperature", agg="avg")
        assert rows

    def test_sticker_receives_stream(self, stack, session):
        session.deploy()
        stack.run_until(6 * 3600.0)
        assert stack.sticker.pushed > 0
        series = stack.sticker.series("weather/temperature")
        assert len(series) >= 5  # one bin per hour
        text = render_series(stack.sticker, "weather/temperature",
                             attribute="temperature")
        assert "trend" in text

    def test_deploy_via_parsed_program_text(self, stack, session):
        # The DSN text itself is deployable — proving the program, not the
        # canvas object, is the actual deployment artifact.
        text = session.translate().render()
        program = parse_dsn(text)
        deployment = stack.executor.deploy(program)
        stack.run_until(13 * 3600.0)
        assert deployment.process("hot").operator.stats.tuples_in > 0

    def test_parsed_program_text_gets_the_canvas_check(self, stack, session):
        text = session.translate().render().replace(
            "temperature > 24", "humidity_nope > 24")
        with pytest.raises(ValidationError, match="humidity_nope"):
            stack.executor.deploy(parse_dsn(text))
        assert "p2" not in stack.executor.deployments
