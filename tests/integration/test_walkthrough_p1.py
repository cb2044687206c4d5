"""Integration test: demo walkthrough part P1.

"Users can create their own dataflows.  Specifically, they will be able to
identify the different sensors that are currently available in the network
and select those on which they wish to specify ETL operations.  Moreover,
they will be able to apply different processing operations on such sources
and check, step-by-step, their results on samples made available from the
source."
"""

import pytest

from repro.dataflow.ops import (
    AggregationSpec, FilterSpec, JoinSpec, VirtualPropertySpec,
)
from repro.designer.preview import sample_from_sensors
from repro.designer.session import DesignerSession
from repro.scenario import build_stack
from tests.oracle.test_flow_oracle import deployed_on_samples, sink_view


@pytest.fixture
def stack():
    return build_stack(hot=True, extended=True)


class TestP1Walkthrough:
    def test_full_design_session(self, stack):
        session = DesignerSession(stack.executor, name="p1")

        # 1. Identify the sensors currently available in the network.
        available = session.palette.sources(organise_by="type")
        assert "temperature" in available and "humidity" in available

        # 2. Select sources.
        temp = session.add_source("osaka-temp-umeda", node_id="temp")
        hum = session.add_source("osaka-humidity-umeda", node_id="hum")

        # 3. Apply processing operations: a join, the apparent-temperature
        #    virtual property from the paper, a filter, an aggregation.
        join = session.add_operator(
            JoinSpec(interval=120.0, predicate="true",
                     left_prefix="t", right_prefix="h"),
            node_id="combine",
        )
        apparent = session.add_operator(
            VirtualPropertySpec(
                "apparent_temperature",
                "temperature + 0.33 * (humidity * 6.105 * "
                "exp(17.27 * temperature / (237.7 + temperature))) - 4.0",
            ),
            node_id="apparent",
        )
        hot = session.add_operator(FilterSpec("apparent_temperature > 27"),
                                   node_id="hot")
        hourly = session.add_operator(
            AggregationSpec(interval=3600.0,
                            attributes=("apparent_temperature",),
                            function="MAX"),
            node_id="hourly-max",
        )
        out = session.add_sink("collector", node_id="out")

        session.connect(temp, join, port=0)
        session.connect(hum, join, port=1)
        session.connect(join, apparent)
        session.connect(apparent, hot)
        session.connect(hot, hourly)
        session.connect(hourly, out)

        # 4. The canvas is consistent and every schema pane is live.
        assert session.is_consistent
        assert "apparent_temperature" in session.schema_pane("apparent")
        assert "max_apparent_temperature" in session.schema_pane("hourly-max")

        # 5. Step-by-step sample check, probing the real sensors at a hot
        #    afternoon hour.
        sensors = {temp: stack.sensor("osaka-temp-umeda"),
                   hum: stack.sensor("osaka-humidity-umeda")}
        result = session.preview(sensors=sensors, count=6, start=14 * 3600.0)
        assert len(result.at(temp)) == 6
        # The preview is the plan a deployment runs: the same canvas
        # deployed untapped on a fresh stack, fed the same samples, pairs
        # as many tuples per join window and collects the same rows.
        fresh = build_stack(hot=True, extended=True, attach_fleet=False)
        for sensor in stack.fleet:
            fresh.broker_network.publish(sensor.metadata)
        deployment = deployed_on_samples(
            fresh.executor, session.flow,
            sample_from_sensors(session.flow, sensors, count=6,
                                start=14 * 3600.0),
        )
        assert len(result.at("combine")) == (
            deployment.process("combine").operator.stats.tuples_out)
        assert sink_view(result.at(out)) == sink_view(deployment.collected(out))
        apparent_rows = result.at("apparent")
        assert apparent_rows
        assert all("apparent_temperature" in row for row in apparent_rows)
        # Hot afternoon in the hot regime: apparent temp beats dry bulb.
        assert all(
            row["apparent_temperature"] > row["temperature"]
            for row in apparent_rows
        )

    def test_design_errors_surface_step_by_step(self, stack):
        session = DesignerSession(stack.executor, name="p1-errors")
        temp = session.add_source("osaka-temp-umeda", node_id="temp")
        bad = session.add_operator(FilterSpec("rain_rate > 5"), node_id="bad")
        out = session.add_sink(node_id="out")
        session.connect(temp, bad)
        session.connect(bad, out)
        assert not session.is_consistent
        issues = session.issues()
        assert any("rain_rate" in issue and "bad" in issue for issue in issues)
        # Fix the condition in place; the canvas turns consistent.
        session.flow.replace_operator("bad", FilterSpec("temperature > 24"))
        assert session.validate().is_valid
