"""Unit tests for the conceptual dataflow graph."""

import pytest

from repro.errors import DataflowError, PortError
from repro.dataflow.graph import Dataflow, SinkKind
from repro.dataflow.ops import AggregationSpec, FilterSpec, JoinSpec, TriggerOnSpec
from repro.pubsub.subscription import SubscriptionFilter


@pytest.fixture
def flow() -> Dataflow:
    return Dataflow("test-flow")


def add_source(flow, node_id="", **kwargs):
    return flow.add_source(SubscriptionFilter(sensor_type="temperature"),
                           node_id=node_id, **kwargs)


def add_trigger(flow):
    return flow.add_operator(
        TriggerOnSpec(interval=60.0, condition="count > 0", targets=("s",)))


@pytest.fixture
def src(flow):
    return add_source(flow)


class TestNodes:
    def test_auto_ids_unique(self, flow):
        a, b = add_source(flow), add_source(flow)
        assert a != b

    def test_explicit_id(self, flow):
        assert add_source(flow, node_id="temp") == "temp"

    def test_duplicate_id_raises(self, flow):
        add_source(flow, node_id="x")
        with pytest.raises(DataflowError, match="already used"):
            flow.add_operator(FilterSpec("true"), node_id="x")

    def test_contains_and_node(self, flow, src):
        assert src in flow
        assert flow.node(src).node_id == src
        with pytest.raises(DataflowError):
            flow.node("ghost")

    def test_bad_sink_kind_raises(self, flow):
        with pytest.raises(DataflowError, match="unknown sink kind"):
            flow.add_sink("database")

    def test_sink_kinds(self, flow):
        for kind in SinkKind.ALL:
            flow.add_sink(kind)


class TestDataEdges:
    def test_connect_chain(self, flow, src):
        op = flow.add_operator(FilterSpec("temperature > 0"))
        sink = flow.add_sink()
        flow.connect(src, op)
        flow.connect(op, sink)
        assert len(flow.data_edges) == 2
        assert flow.inputs_of(op)[0].source_id == src
        assert flow.outputs_of(op)[0].target_id == sink

    def test_source_cannot_receive(self, flow):
        a, b = add_source(flow), add_source(flow)
        with pytest.raises(PortError, match="cannot receive"):
            flow.connect(a, b)

    def test_sink_has_no_output(self, flow, src):
        sink = flow.add_sink()
        flow.connect(src, sink)
        with pytest.raises(PortError, match="no output"):
            flow.connect(sink, src)

    def test_trigger_has_no_data_output(self, flow):
        trig = add_trigger(flow)
        sink = flow.add_sink()
        with pytest.raises(PortError, match="control-only"):
            flow.connect(trig, sink)

    def test_port_bounds(self, flow, src):
        op = flow.add_operator(FilterSpec("true"))
        with pytest.raises(PortError, match="ports 0..0"):
            flow.connect(src, op, port=1)

    def test_join_accepts_two_ports(self, flow):
        a, b = add_source(flow), add_source(flow)
        join = flow.add_operator(JoinSpec(interval=60.0, predicate="true"))
        flow.connect(a, join, port=0)
        flow.connect(b, join, port=1)
        assert len(flow.inputs_of(join)) == 2

    def test_port_double_connect_raises(self, flow):
        a, b = add_source(flow), add_source(flow)
        op = flow.add_operator(FilterSpec("true"))
        flow.connect(a, op)
        with pytest.raises(PortError, match="already connected"):
            flow.connect(b, op)

    def test_disconnect(self, flow, src):
        op = flow.add_operator(FilterSpec("true"))
        flow.connect(src, op)
        flow.disconnect(src, op)
        assert flow.data_edges == []
        with pytest.raises(DataflowError):
            flow.disconnect(src, op)


class TestControlEdges:
    def test_trigger_to_source(self, flow, src):
        trig = add_trigger(flow)
        flow.connect_control(trig, src)
        assert flow.controlled_sources(trig) == [src]

    def test_non_trigger_cannot_control(self, flow, src):
        op = flow.add_operator(FilterSpec("true"))
        with pytest.raises(PortError, match="not a trigger"):
            flow.connect_control(op, src)

    def test_control_must_target_source(self, flow):
        trig = add_trigger(flow)
        op = flow.add_operator(FilterSpec("true"))
        with pytest.raises(PortError, match="must target sources"):
            flow.connect_control(trig, op)

    def test_duplicate_control_edge_raises(self, flow, src):
        trig = add_trigger(flow)
        flow.connect_control(trig, src)
        with pytest.raises(PortError, match="exists"):
            flow.connect_control(trig, src)


class TestEditing:
    def test_remove_node_cleans_edges(self, flow, src):
        op = flow.add_operator(FilterSpec("true"))
        sink = flow.add_sink()
        flow.connect(src, op)
        flow.connect(op, sink)
        flow.remove_node(op)
        assert op not in flow
        assert flow.data_edges == []

    def test_remove_unknown_raises(self, flow):
        with pytest.raises(DataflowError):
            flow.remove_node("ghost")

    def test_replace_operator_keeps_edges(self, flow, src):
        op = flow.add_operator(FilterSpec("temperature > 0"))
        sink = flow.add_sink()
        flow.connect(src, op)
        flow.connect(op, sink)
        flow.replace_operator(op, FilterSpec("temperature > 10"))
        assert flow.operators[op].spec.condition == "temperature > 10"
        assert len(flow.data_edges) == 2

    def test_replace_with_different_arity_raises(self, flow):
        op = flow.add_operator(FilterSpec("true"))
        with pytest.raises(DataflowError, match="input port"):
            flow.replace_operator(op, JoinSpec(interval=60.0, predicate="true"))


class TestTopology:
    def test_topological_order(self, flow, src):
        a = flow.add_operator(FilterSpec("true"))
        b = flow.add_operator(
            AggregationSpec(interval=60.0, attributes=("temperature",),
                            function="AVG")
        )
        sink = flow.add_sink()
        flow.connect(src, a)
        flow.connect(a, b)
        flow.connect(b, sink)
        order = flow.topological_order()
        assert order.index(src) < order.index(a) < order.index(b) < order.index(sink)
