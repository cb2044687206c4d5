"""Unit tests for canvas document (de)serialization."""

import json

import pytest

from repro.dataflow.graph import Dataflow
from repro.dataflow.ops import CullSpaceSpec, JoinSpec, TriggerOnSpec
from repro.dataflow.serialize import dataflow_from_dict, dataflow_to_dict
from repro.errors import DataflowError
from repro.network.qos import QosPolicy
from repro.pubsub.subscription import SubscriptionFilter
from repro.stt.spatial import Box
from repro.stt.thematic import Theme


def rich_flow() -> Dataflow:
    flow = Dataflow("rich")
    a = flow.add_source(
        SubscriptionFilter(
            sensor_type="temperature",
            theme=Theme("weather"),
            area=Box(south=34.5, west=135.3, north=34.9, east=135.7),
            min_frequency=0.001,
            max_frequency=1.0,
        ),
        node_id="a", label="temps",
    )
    b = flow.add_source(SubscriptionFilter(sensor_ids=("rain-1", "rain-2")),
                        node_id="b", initially_active=False)
    trig = flow.add_operator(
        TriggerOnSpec(interval=300.0, window=3600.0,
                      condition="avg_temperature > 25", targets=("rain-1",)),
        node_id="trig",
    )
    cull = flow.add_operator(
        CullSpaceSpec(rate=5, corner1=(34.5, 135.3), corner2=(34.9, 135.7)),
        node_id="cull",
    )
    join = flow.add_operator(
        JoinSpec(interval=60.0, predicate="left.station == right.station"),
        node_id="join",
    )
    sink = flow.add_sink(
        "warehouse",
        config={"value_attribute": "rain_rate"},
        qos=QosPolicy(qos_class="reliable", segment_bytes=1024,
                      priority=2, max_latency=0.5),
        node_id="dw",
    )
    flow.connect(a, trig)
    flow.connect(b, cull)
    flow.connect(cull, join, port=0)
    flow.connect(b, join, port=1)
    flow.connect(join, sink)
    flow.connect_control(trig, b)
    return flow


class TestRoundTrip:
    def test_dict_round_trip_exact(self):
        flow = rich_flow()
        document = dataflow_to_dict(flow)
        rebuilt = dataflow_from_dict(document)
        assert dataflow_to_dict(rebuilt) == document

    def test_json_serializable(self):
        document = dataflow_to_dict(rich_flow())
        text = json.dumps(document)
        assert dataflow_to_dict(dataflow_from_dict(json.loads(text))) == document

    def test_structure_preserved(self):
        rebuilt = dataflow_from_dict(dataflow_to_dict(rich_flow()))
        assert set(rebuilt.sources) == {"a", "b"}
        assert set(rebuilt.operators) == {"trig", "cull", "join"}
        assert len(rebuilt.data_edges) == 5
        assert len(rebuilt.control_edges) == 1

    def test_filter_fields_preserved(self):
        rebuilt = dataflow_from_dict(dataflow_to_dict(rich_flow()))
        filter_ = rebuilt.sources["a"].filter
        assert filter_.sensor_type == "temperature"
        assert filter_.theme == Theme("weather")
        assert filter_.area.south == 34.5
        assert filter_.min_frequency == 0.001

    def test_qos_preserved(self):
        rebuilt = dataflow_from_dict(dataflow_to_dict(rich_flow()))
        qos = rebuilt.sinks["dw"].qos
        assert qos.qos_class.value == "reliable"
        assert qos.segment_bytes == 1024
        assert qos.priority == 2
        assert qos.max_latency == 0.5

    def test_infinite_latency_serialised_as_null(self):
        flow = Dataflow("plain")
        src = flow.add_source(SubscriptionFilter(), node_id="s")
        sink = flow.add_sink(node_id="k")
        flow.connect(src, sink)
        document = dataflow_to_dict(flow)
        assert document["sinks"][0]["qos"]["max_latency"] is None
        rebuilt = dataflow_from_dict(document)
        assert rebuilt.sinks["k"].qos.max_latency == float("inf")

    def test_initially_active_preserved(self):
        rebuilt = dataflow_from_dict(dataflow_to_dict(rich_flow()))
        assert rebuilt.sources["a"].initially_active
        assert not rebuilt.sources["b"].initially_active


class TestMalformed:
    def test_missing_key_raises(self):
        with pytest.raises(DataflowError, match="malformed"):
            dataflow_from_dict({"name": "x", "sources": [{"filter": {}}]})

    def test_empty_document_gives_empty_flow(self):
        flow = dataflow_from_dict({})
        assert flow.name == "dataflow"
        assert not flow.node_ids
