"""Unit tests for the dataflow -> DSN translator."""

import pytest

from repro.dataflow.graph import Dataflow
from repro.dataflow.ops import FilterSpec, TriggerOnSpec
from repro.dsn.ast import ServiceRole
from repro.dsn.generate import dataflow_to_dsn
from repro.dsn.parse import parse_dsn
from repro.pubsub.subscription import SubscriptionFilter
from tests.unit.dsn.test_check import row


def scenario_flow():
    flow = Dataflow("scenario")
    temp = flow.add_source(SubscriptionFilter(sensor_type="temperature"),
                           node_id="temp")
    rain = flow.add_source(SubscriptionFilter(sensor_type="rain"),
                           node_id="rain", initially_active=False)
    trig = flow.add_operator(
        TriggerOnSpec(interval=300.0, window=3600.0,
                      condition="avg_temperature > 25",
                      targets=("osaka-rain-umeda",)),
        node_id="trig",
    )
    filt = flow.add_operator(FilterSpec("rain_rate > 10"), node_id="torrential")
    sink = flow.add_sink("warehouse", node_id="dw")
    flow.connect(temp, trig)
    flow.connect(rain, filt)
    flow.connect(filt, sink)
    flow.connect_control(trig, rain)
    return flow


@pytest.fixture
def program(registry):
    return dataflow_to_dsn(scenario_flow(), registry)


class TestTranslation:
    def test_every_node_becomes_a_service(self, program):
        assert {s.name for s in program.services} == {"temp", "rain", "trig",
                                                      "torrential", "dw"}

    def test_roles_and_kinds(self, program):
        assert program.service("temp").role is ServiceRole.SOURCE
        assert program.service("trig").kind == "trigger-on"
        assert program.service("dw").role is ServiceRole.SINK
        assert program.service("dw").kind == "warehouse"

    def test_edges_become_channels_and_controls(self, program):
        assert len(program.channels) == 3
        assert len(program.controls) == 1
        assert program.controls[0].trigger == "trig"

    def test_initial_activation_in_params(self, program):
        assert program.service("temp").params["active"] is True
        assert program.service("rain").params["active"] is False

    def test_operator_params_embedded(self, program):
        trig = program.service("trig")
        assert trig.params["condition"] == "avg_temperature > 25"
        assert trig.params["window"] == 3600.0

    def test_full_text_round_trip(self, program):
        assert parse_dsn(program.render()).render() == program.render()


class TestSoundnessGate:
    test_invalid_flow_refused = row("unknown-attribute")
