"""Unit tests for canvas rendering (DOT + ASCII)."""

import pytest

from repro.dataflow.graph import Dataflow
from repro.dataflow.ops import FilterSpec, JoinSpec, TriggerOnSpec
from repro.dataflow.render import render_ascii, to_dot
from repro.pubsub.subscription import SubscriptionFilter


@pytest.fixture
def flow() -> Dataflow:
    flow = Dataflow("render-me")
    temp = flow.add_source(SubscriptionFilter(sensor_type="temperature"),
                           node_id="temp")
    rain = flow.add_source(SubscriptionFilter(sensor_type="rain"),
                           node_id="rain", initially_active=False)
    trig = flow.add_operator(
        TriggerOnSpec(interval=300.0, condition="avg_temperature > 25",
                      targets=("r1",)),
        node_id="trig",
    )
    filt = flow.add_operator(FilterSpec("rain_rate > 10"), node_id="filt")
    sink = flow.add_sink("warehouse", node_id="dw")
    flow.connect(temp, trig)
    flow.connect(rain, filt)
    flow.connect(filt, sink)
    flow.connect_control(trig, rain)
    return flow


class TestDot:
    def test_all_nodes_and_edges_present(self, flow):
        dot = to_dot(flow)
        for node_id in ("temp", "rain", "trig", "filt", "dw"):
            assert f'"{node_id}"' in dot
        assert '"rain" -> "filt"' in dot
        assert '"trig" -> "rain"' in dot and "dashed" in dot

    def test_shapes_by_role(self, flow):
        dot = to_dot(flow)
        assert "shape=house" in dot
        assert "shape=box" in dot
        assert "shape=cylinder" in dot

    def test_dormant_sources_marked(self, flow):
        assert "(dormant)" in to_dot(flow)

    def test_quotes_escaped(self):
        flow = Dataflow('with "quotes"')
        assert 'digraph "with \\"quotes\\""' in to_dot(flow)

    def test_port_labels_on_joins(self):
        flow = Dataflow("join-render")
        a = flow.add_source(SubscriptionFilter(), node_id="a")
        b = flow.add_source(SubscriptionFilter(), node_id="b")
        join = flow.add_operator(JoinSpec(interval=60.0, predicate="true"),
                                 node_id="j")
        sink = flow.add_sink(node_id="k")
        flow.connect(a, join, port=0)
        flow.connect(b, join, port=1)
        flow.connect(join, sink)
        assert 'label="port 1"' in to_dot(flow)


class TestAscii:
    def test_layers_follow_topology(self, flow):
        text = render_ascii(flow)
        assert text.index("layer 0") < text.index("layer 1")
        assert "temp (src)" in text
        assert "rain (src, dormant)" in text
        assert "trig [trigger-on]" in text
        assert "dw <warehouse>" in text

    def test_edges_listed(self, flow):
        text = render_ascii(flow)
        assert "rain --> filt" in text
        assert "trig ~~> rain" in text

    def test_empty_flow(self):
        text = render_ascii(Dataflow("empty"))
        assert "empty" in text
