"""Unit tests for canvas document (de)serialization."""

import json

import pytest

from repro.dataflow.ops import CullSpaceSpec, JoinSpec, TriggerOnSpec
from repro.dataflow.serialize import dataflow_from_dict, dataflow_to_dict
from repro.dsn.ast import DsnProgram
from repro.errors import DataflowError
from repro.network.qos import QosPolicy
from repro.pubsub.subscription import SubscriptionFilter
from repro.stt.spatial import Box
from repro.stt.thematic import Theme
from tests.builders import pipeline


def rich_flow() -> DsnProgram:
    flow = DsnProgram("rich")
    a = flow.add_source(
        SubscriptionFilter(
            sensor_type="temperature",
            theme=Theme("weather"),
            area=Box(south=34.5, west=135.3, north=34.9, east=135.7),
            min_frequency=0.001,
            max_frequency=1.0,
        ),
        node_id="a",
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
        assert [s.name for s in rebuilt.services] == [
            "a", "b", "trig", "cull", "join", "dw"]
        assert len(rebuilt.channels) == 5
        assert len(rebuilt.controls) == 1

    def test_filter_fields_preserved(self):
        rebuilt = dataflow_from_dict(dataflow_to_dict(rich_flow()))
        filter_ = rebuilt.service("a").filter()
        assert filter_.sensor_type == "temperature"
        assert filter_.theme == Theme("weather")
        assert filter_.area.south == 34.5
        assert filter_.min_frequency == 0.001

    def test_qos_preserved(self):
        rebuilt = dataflow_from_dict(dataflow_to_dict(rich_flow()))
        qos = rebuilt.service("dw").qos
        assert qos.qos_class.value == "reliable"
        assert qos.segment_bytes == 1024
        assert qos.priority == 2
        assert qos.max_latency == 0.5

    def test_infinite_latency_serialised_as_null(self):
        document = dataflow_to_dict(pipeline("plain", sink="k"))
        assert document["sinks"][0]["qos"]["max_latency"] is None
        rebuilt = dataflow_from_dict(document)
        assert rebuilt.service("k").qos.max_latency == float("inf")

    def test_initially_active_preserved(self):
        rebuilt = dataflow_from_dict(dataflow_to_dict(rich_flow()))
        assert rebuilt.service("a").params["active"]
        assert not rebuilt.service("b").params["active"]


class TestMalformed:
    def test_missing_key_raises(self):
        """A missing key, or a field of the wrong shape or type."""
        source = {"node_id": "s", "filter": {}}
        for document in (
            {"name": "x", "sources": [{"filter": {}}]},
            {"sources": [{"node_id": "s", "filter": {"area": [1, 2]}}]},
            {"sources": [source], "sinks": [{"node_id": "k"}],
             "data_edges": [{"source": "s", "target": "k", "port": "x"}]},
        ):
            with pytest.raises(DataflowError, match="malformed"):
                dataflow_from_dict(document)

    def test_empty_document_gives_empty_flow(self):
        flow = dataflow_from_dict({})
        assert flow.name == "dataflow"
        assert not flow.services
