"""Unit tests for the canvas edit calls on the DSN program."""

import networkx as nx
import pytest

from repro.errors import DataflowError, DsnError, PortError
from repro.dataflow.ops import AggregationSpec, FilterSpec, JoinSpec, TriggerOnSpec
from repro.dsn.ast import DsnFuse, DsnProgram, DsnShard
from repro.pubsub.subscription import SubscriptionFilter
from tests.unit.dsn.test_goldens import golden


@pytest.fixture
def flow() -> DsnProgram:
    return DsnProgram("test-flow")


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
        sink, op = flow.add_sink(), flow.add_operator(FilterSpec("true"))
        c = add_source(flow)  # one counter; each node ends its role's group
        assert [s.name for s in flow.services] == [a, b, c, op, sink] == [
            "source-1", "source-2", "source-5", "filter-4", "sink-3"]

    test_explicit_id = golden("p2-torrential-rain")

    def test_duplicate_id_raises(self, flow):
        add_source(flow, node_id="x")
        with pytest.raises(DataflowError, match="already used"):
            flow.add_operator(FilterSpec("true"), node_id="x")

    def test_contains_and_node(self, flow, src):
        assert src in flow
        assert flow.service(src).name == src
        with pytest.raises(DsnError):
            flow.service("ghost")

    def test_bad_sink_kind_raises(self, flow):
        with pytest.raises(DataflowError, match="unknown sink kind"):
            flow.add_sink("database")

    test_sink_kinds = golden()


class TestDataEdges:
    test_connect_chain = golden("p7-fused-pipeline")

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

    test_join_accepts_two_ports = golden("p1-apparent-temperature")

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
        assert flow.channels == []
        with pytest.raises(DataflowError):
            flow.disconnect(src, op)


class TestControlEdges:
    test_trigger_to_source = golden("p2-torrential-rain")

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

    def test_replace_operator_keeps_edges(self, flow, src):
        op = flow.add_operator(FilterSpec("temperature > 0"))
        sink = flow.add_sink()
        flow.connect(src, op)
        flow.connect(op, sink)
        flow.replace_operator(op, FilterSpec("temperature > 10"))
        assert flow.service(op).spec().condition == "temperature > 10"
        assert len(flow.channels) == 2

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
        order = list(nx.topological_sort(flow.data_graph()))
        assert order.index(src) < order.index(a) < order.index(b) < order.index(sink)
