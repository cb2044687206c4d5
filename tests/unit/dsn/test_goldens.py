"""Golden tests for DSN translation.

Each test translates a representative conceptual dataflow — the shipped
Osaka canvas plus three walkthrough-style flows — to its DSN program text
and compares it byte-for-byte against a snapshot under ``goldens/``.  Any
translator change that alters the emitted program shows up as a readable
diff here.

To accept an intentional change::

    pytest tests/unit/dsn/test_goldens.py --update-goldens
"""

import json
import pathlib

import pytest

from repro.dataflow.fusion import plan_fusion
from repro.dataflow.graph import Dataflow
from repro.dataflow.ops import (
    AggregationSpec,
    FilterSpec,
    JoinSpec,
    TransformSpec,
    TriggerOnSpec,
    VirtualPropertySpec,
)
from repro.dataflow.serialize import dataflow_from_dict
from repro.dsn.ast import DsnFuse
from repro.dsn.check import check
from repro.dsn.generate import dataflow_to_dsn
from repro.dsn.parse import parse_dsn
from repro.network.topology import Topology
from repro.pubsub.broker import BrokerNetwork
from repro.pubsub.subscription import SubscriptionFilter
from repro.sensors.osaka import osaka_fleet
from tests.builders import pipeline

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"
CANVAS = pathlib.Path(__file__).parents[3] / "examples" / "canvases" \
    / "osaka-scenario.json"


@pytest.fixture(scope="module")
def registry():
    net = BrokerNetwork()
    for sensor in osaka_fleet(Topology.star(leaf_count=3), extended=True):
        net.publish(sensor.metadata)
    return net.registry


def osaka_canvas_flow() -> Dataflow:
    return dataflow_from_dict(json.loads(CANVAS.read_text()))


def p1_apparent_temperature_flow() -> Dataflow:
    """The P1 walkthrough design: join, virtual property, filter, window."""
    flow = Dataflow("p1-apparent-temperature")
    temp = flow.add_source(
        SubscriptionFilter(sensor_ids=("osaka-temp-umeda",)), node_id="temp")
    hum = flow.add_source(
        SubscriptionFilter(sensor_ids=("osaka-humidity-umeda",)), node_id="hum"
    )
    join = flow.add_operator(
        JoinSpec(interval=120.0, predicate="true",
                 left_prefix="t", right_prefix="h"),
        node_id="combine",
    )
    apparent = flow.add_operator(
        VirtualPropertySpec(
            "apparent_temperature",
            "temperature + 0.33 * humidity * 10.0 - 4.0",
        ),
        node_id="apparent",
    )
    hot = flow.add_operator(FilterSpec("apparent_temperature > 27"),
                            node_id="hot")
    hourly = flow.add_operator(
        AggregationSpec(interval=3600.0, attributes=("apparent_temperature",),
                        function="MAX"),
        node_id="hourly-max",
    )
    out = flow.add_sink("collector", node_id="out")
    flow.connect(temp, join, port=0)
    flow.connect(hum, join, port=1)
    flow.connect(join, apparent)
    flow.connect(apparent, hot)
    flow.connect(hot, hourly)
    flow.connect(hourly, out)
    return flow


def p2_torrential_rain_flow() -> Dataflow:
    """The P2 walkthrough design: trigger-gated acquisition + warehouse."""
    flow = Dataflow("p2-torrential-rain")
    temp = flow.add_source(SubscriptionFilter(sensor_type="temperature"),
                           node_id="temp")
    rain = flow.add_source(SubscriptionFilter(sensor_type="rain"),
                           node_id="rain", initially_active=False)
    trigger = flow.add_operator(
        TriggerOnSpec(interval=300.0, window=3600.0,
                      condition="avg_temperature > 25",
                      targets=("osaka-rain-umeda", "osaka-rain-namba")),
        node_id="hot-hour",
    )
    torrential = flow.add_operator(FilterSpec("rain_rate > 10"),
                                   node_id="torrential")
    warehouse = flow.add_sink("warehouse", node_id="dw")
    flow.connect(temp, trigger)
    flow.connect(rain, torrential)
    flow.connect(torrential, warehouse)
    flow.connect_control(trigger, rain)
    return flow


def p3_fahrenheit_feed_flow() -> Dataflow:
    """The P3 walkthrough design: plug-and-play source into a unit
    transform feeding the visualization."""
    return pipeline("p3-fahrenheit-feed", ("to-fahrenheit", TransformSpec(
        {"temperature": "convert(temperature, 'celsius', 'fahrenheit')"})),
        source="temp", sink="sticker", sink_kind="visualization")


def p5_sharded_stations_flow() -> Dataflow:
    """PR-5 scale-out design: an equi-join and a grouped aggregation,
    both split into key-hashed shard replicas via the ``shard`` clause."""
    flow = Dataflow("p5-sharded-stations")
    temp = flow.add_source(SubscriptionFilter(sensor_type="temperature"),
                           node_id="temp")
    hum = flow.add_source(SubscriptionFilter(sensor_type="humidity"),
                          node_id="hum")
    combine = flow.add_operator(
        JoinSpec(interval=120.0, predicate="left.station == right.station"),
        node_id="combine",
    )
    averages = flow.add_operator(
        AggregationSpec(interval=600.0, attributes=("temperature",),
                        function="AVG", group_by="station"),
        node_id="station-avg",
    )
    joined = flow.add_sink("collector", node_id="joined")
    out = flow.add_sink("collector", node_id="out")
    flow.connect(temp, combine, port=0)
    flow.connect(hum, combine, port=1)
    flow.connect(combine, joined)
    flow.connect(temp, averages)
    flow.connect(averages, out)
    return flow


def p6_elastic_stations_flow() -> Dataflow:
    """PR-6 elastic design: a grouped aggregation sharded with the
    ``elastic`` clause, attaching the load-feedback rebalance loop."""
    return pipeline("p6-elastic-stations", ("station-avg", AggregationSpec(
        interval=600.0, attributes=("temperature",), function="AVG",
        group_by="station")), source="temp")


def p7_fused_pipeline_flow() -> Dataflow:
    """PR-7 fusion design: a 4-op non-blocking chain pinned into one
    process via the ``fuse`` clause."""
    return pipeline(
        "p7-fused-pipeline", ("hot", FilterSpec("temperature > 24")),
        ("to-fahrenheit", TransformSpec(
            {"temperature": "convert(temperature, 'celsius', 'fahrenheit')"})),
        ("apparent", VirtualPropertySpec("heat_flag", "temperature > 86")),
        source="temp")


FLOWS = {
    "osaka-scenario": osaka_canvas_flow,
    "p1-apparent-temperature": p1_apparent_temperature_flow,
    "p2-torrential-rain": p2_torrential_rain_flow,
    "p3-fahrenheit-feed": p3_fahrenheit_feed_flow,
    "p5-sharded-stations": p5_sharded_stations_flow,
    "p6-elastic-stations": p6_elastic_stations_flow,
    "p7-fused-pipeline": p7_fused_pipeline_flow,
}

#: shard directives passed to the translator per golden flow; flows not
#: listed translate shard-free (their goldens keep the historical form).
SHARDS = {"p5-sharded-stations": {"combine": 2, "station-avg": 4},
          "p6-elastic-stations": {"station-avg": 4}}

#: golden flows translated with ``elastic=True`` (shard clauses carry the
#: trailing ``elastic`` keyword).
ELASTIC = {"p6-elastic-stations"}

#: golden flows whose planner chains are pinned into explicit ``fuse``
#: clauses after translation.
FUSED = {"p7-fused-pipeline"}


@pytest.mark.parametrize("name", sorted(FLOWS))
class TestDsnGoldens:
    def test_translation_matches_golden(self, name, registry, update_goldens):
        program = dataflow_to_dsn(
            FLOWS[name](), registry, shards=SHARDS.get(name),
            elastic=name in ELASTIC,
        )
        if name in FUSED:
            program.fuses = [DsnFuse(members=chain)
                             for chain in plan_fusion(program)]
        text = program.render()
        path = GOLDEN_DIR / f"{name}.dsn"
        if update_goldens:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(text)
            return
        assert path.exists(), (
            f"missing golden {path.name}; generate it with "
            f"pytest {__file__} --update-goldens"
        )
        assert text == path.read_text()

    def test_golden_parses_back_to_same_program(self, name, registry,
                                                update_goldens):
        if update_goldens:
            pytest.skip("goldens being rewritten")
        text = (GOLDEN_DIR / f"{name}.dsn").read_text()
        assert parse_dsn(text).render() == text
        assert check(parse_dsn(text), registry).is_valid
