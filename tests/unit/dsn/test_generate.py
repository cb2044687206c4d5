"""Unit tests for the dataflow -> DSN translator."""

import pytest

from repro.dataflow.graph import Dataflow
from repro.dataflow.ops import FilterSpec, TriggerOnSpec
from repro.dsn.ast import ServiceRole
from repro.dsn.generate import dataflow_to_dsn
from repro.dsn.parse import parse_dsn
from repro.errors import ValidationError
from repro.network.topology import Topology
from repro.pubsub.broker import BrokerNetwork
from repro.pubsub.subscription import SubscriptionFilter
from repro.sensors.osaka import osaka_fleet


@pytest.fixture
def registry():
    net = BrokerNetwork()
    for sensor in osaka_fleet(Topology.star(leaf_count=2)):
        net.publish(sensor.metadata)
    return net.registry


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


class TestTranslation:
    def test_every_node_becomes_a_service(self, registry):
        program = dataflow_to_dsn(scenario_flow(), registry)
        assert {s.name for s in program.services} == {
            "temp", "rain", "trig", "torrential", "dw",
        }

    def test_roles_and_kinds(self, registry):
        program = dataflow_to_dsn(scenario_flow(), registry)
        assert program.service("temp").role is ServiceRole.SOURCE
        assert program.service("trig").kind == "trigger-on"
        assert program.service("dw").role is ServiceRole.SINK
        assert program.service("dw").kind == "warehouse"

    def test_edges_become_channels_and_controls(self, registry):
        program = dataflow_to_dsn(scenario_flow(), registry)
        assert len(program.channels) == 3
        assert len(program.controls) == 1
        assert program.controls[0].trigger == "trig"

    def test_initial_activation_in_params(self, registry):
        program = dataflow_to_dsn(scenario_flow(), registry)
        assert program.service("temp").params["active"] is True
        assert program.service("rain").params["active"] is False

    def test_operator_params_embedded(self, registry):
        program = dataflow_to_dsn(scenario_flow(), registry)
        trig = program.service("trig")
        assert trig.params["condition"] == "avg_temperature > 25"
        assert trig.params["window"] == 3600.0

    def test_full_text_round_trip(self, registry):
        program = dataflow_to_dsn(scenario_flow(), registry)
        assert parse_dsn(program.render()).render() == program.render()


class TestSoundnessGate:
    def test_invalid_flow_refused(self, registry):
        flow = Dataflow("broken")
        src = flow.add_source(SubscriptionFilter(sensor_type="temperature"),
                              node_id="s")
        bad = flow.add_operator(FilterSpec("ghost > 1"), node_id="bad")
        sink = flow.add_sink(node_id="k")
        flow.connect(src, bad)
        flow.connect(bad, sink)
        with pytest.raises(ValidationError):
            dataflow_to_dsn(flow, registry)
