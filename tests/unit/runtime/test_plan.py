"""The physical plan, one table per deployment shape.

Each table lists the units in spawn order as (key, role, hosted
services, node) and the edges in wiring order as (producer, consumer,
port, batch), as read off deployments made before the plan existed, so
they pin that planning moved nothing.  The star topology's hub is one
hop from every edge node.
"""

import ast
import pathlib

import pytest

import repro
from repro.dsn.parse import parse_dsn
from repro.errors import DeploymentError
from repro.scenario import build_stack
from tests.unit.dsn.test_check import row


def source(name, sensor_type=None, active=True, sensor_ids=None):
    match = (f'{{"sensor_ids": ["{sensor_ids}"]}}' if sensor_ids
             else f'{{"sensor_type": "{sensor_type}"}}')
    return (f'service source "{name}" kind "sensor-stream" {{\n'
            f'param active = {str(active).lower()};\nparam filter = {match};\n}}')


def operator(name, kind, *params):
    body = "".join(f"param {param};\n" for param in params)
    return f'service operator "{name}" kind "{kind}" {{\n{body}}}'


def sink(name):
    return f'service sink "{name}" kind "collector" {{\nparam config = {{}};\n}}'


def keep(name="keep"):
    return operator(name, "filter", 'condition = "temperature > -100"')


def slim(name="slim"):
    return operator(name, "transform", 'project = ["temperature", "station"]')


def avg(name="avg"):
    return operator(name, "aggregation", 'attributes = ["temperature"]',
                    'function = "AVG"', 'group_by = "station"',
                    "interval = 300.0", "window = null")


def program(name, *lines):
    return parse_dsn(f'dsn "{name}" {{\n' + "\n".join(lines) + "\n}\n")


def channel(source_name, target, port=0, batch=1):
    line = f'channel "{source_name}" -> "{target}" port {port}'
    return line + (f" batch {batch};" if batch != 1 else ";")


SHAPES = {
    "plain-chain": (
        program(
            "plain",
            source("temp", "temperature"), keep(), avg(), sink("out"),
            channel("temp", "keep", batch=4), channel("keep", "avg"),
            channel("avg", "out"),
        ),
        [("keep", "operator", ("keep",), "hub"),
         ("avg", "operator", ("avg",), "hub"),
         ("out", "sink", ("out",), "hub")],
        [("temp", "keep", 0, 4), ("keep", "avg", 0, 1),
         ("avg", "out", 0, 1)],
    ),
    "fused-chain": (
        program(
            "fused",
            source("temp", "temperature"), keep(),
            operator("double", "virtual-property",
                     'property_name = "double_temp"',
                     'spec = "temperature * 2"'),
            slim(), sink("out"),
            channel("temp", "keep", batch=8), channel("keep", "double"),
            channel("double", "slim"), channel("slim", "out"),
        ),
        [("keep+double+slim", "chain", ("keep", "double", "slim"), "hub"),
         ("out", "sink", ("out",), "hub")],
        [("temp", "keep+double+slim", 0, 8),
         ("keep+double+slim", "out", 0, 1)],
    ),
    # The side branch lands on edge-0 first, so the shards spread past it:
    # placement sees the demand of every unit planned before them.
    "fused-chain-into-sharded-avg": (
        program(
            "fed",
            source("side-temp", sensor_ids="osaka-temp-namba"),
            keep("side"), sink("side-out"),
            source("temp", "temperature"), keep(), slim(), avg(), sink("out"),
            channel("side-temp", "side"), channel("side", "side-out"),
            channel("temp", "keep"), channel("keep", "slim"),
            channel("slim", "avg"), channel("avg", "out"),
            'shard "avg" 3 by "station";',
        ),
        [("side", "operator", ("side",), "edge-0"),
         ("side-out", "sink", ("side-out",), "edge-0"),
         ("keep+slim", "chain", ("keep", "slim"), "hub"),
         ("avg#0", "shard", ("avg",), "hub"),
         ("avg#1", "shard", ("avg",), "edge-1"),
         ("avg#2", "shard", ("avg",), "edge-2"),
         ("avg#merge", "merge", ("avg",), "hub"),
         ("out", "sink", ("out",), "hub")],
        [("avg#0", "avg#merge", 0, 1), ("avg#1", "avg#merge", 0, 1),
         ("avg#2", "avg#merge", 0, 1),
         ("side-temp", "side", 0, 1), ("side", "side-out", 0, 1),
         ("temp", "keep+slim", 0, 1), ("keep+slim", "avg", 0, 1),
         ("avg#merge", "out", 0, 1)],
    ),
    "static-shards-4": (
        program(
            "static",
            source("temp", "temperature"), avg("station-avg"), sink("out"),
            channel("temp", "station-avg", batch=2),
            channel("station-avg", "out"),
            'shard "station-avg" 4 by "station";',
        ),
        [("station-avg#0", "shard", ("station-avg",), "hub"),
         ("station-avg#1", "shard", ("station-avg",), "edge-0"),
         ("station-avg#2", "shard", ("station-avg",), "edge-1"),
         ("station-avg#3", "shard", ("station-avg",), "edge-2"),
         ("station-avg#merge", "merge", ("station-avg",), "hub"),
         ("out", "sink", ("out",), "hub")],
        [("station-avg#0", "station-avg#merge", 0, 1),
         ("station-avg#1", "station-avg#merge", 0, 1),
         ("station-avg#2", "station-avg#merge", 0, 1),
         ("station-avg#3", "station-avg#merge", 0, 1),
         ("temp", "station-avg", 0, 2),
         ("station-avg#merge", "out", 0, 1)],
    ),
    "elastic-shards": (
        program(
            "elastic",
            source("temp", "temperature"), avg("station-avg"), sink("out"),
            channel("temp", "station-avg"), channel("station-avg", "out"),
            'shard "station-avg" 2 by "station" elastic;',
        ),
        [("station-avg#0", "shard", ("station-avg",), "hub"),
         ("station-avg#1", "shard", ("station-avg",), "edge-0"),
         ("station-avg#merge", "merge", ("station-avg",), "hub"),
         ("out", "sink", ("out",), "hub")],
        [("station-avg#0", "station-avg#merge", 0, 1),
         ("station-avg#1", "station-avg#merge", 0, 1),
         ("temp", "station-avg", 0, 1),
         ("station-avg#merge", "out", 0, 1)],
    ),
    "sharded-join": (
        program(
            "joined",
            source("temp", "temperature"), source("roads", "traffic"),
            operator("combine", "join", "interval = 120.0",
                     'left_prefix = "left"', 'right_prefix = "right"',
                     'predicate = "left.station == right.road"'),
            sink("pairs"),
            channel("temp", "combine", port=0),
            channel("roads", "combine", port=1),
            channel("combine", "pairs"),
            'shard "combine" 2 by "station", "road";',
        ),
        [("combine#0", "shard", ("combine",), "hub"),
         ("combine#1", "shard", ("combine",), "edge-2"),
         ("combine#merge", "merge", ("combine",), "hub"),
         ("pairs", "sink", ("pairs",), "hub")],
        [("combine#0", "combine#merge", 0, 1),
         ("combine#1", "combine#merge", 0, 1),
         ("temp", "combine", 0, 1), ("roads", "combine", 1, 1),
         ("combine#merge", "pairs", 0, 1)],
    ),
    "trigger-governs-sources": (
        program(
            "gated",
            source("temperature", "temperature"),
            source("rain", "rain", active=False),
            operator("trig", "trigger-on", 'condition = "avg_temperature > 25"',
                     "interval = 300.0", 'targets = ["osaka-rain-umeda"]',
                     "window = 3600.0"),
            operator("torrential", "filter", 'condition = "rain_rate > 10"'),
            operator("wet", "virtual-property", 'property_name = "wet"',
                     'spec = "rain_rate > 0"'),
            sink("out"),
            channel("temperature", "trig"), channel("rain", "torrential"),
            channel("torrential", "wet"), channel("wet", "out"),
            'control "trig" -> "rain";',
        ),
        [("trig", "operator", ("trig",), "hub"),
         ("torrential+wet", "chain", ("torrential", "wet"), "hub"),
         ("out", "sink", ("out",), "hub")],
        [("temperature", "trig", 0, 1), ("rain", "torrential+wet", 0, 1),
         ("torrential+wet", "out", 0, 1)],
    ),
}


def deploy(shape):
    stack = build_stack(observability=0.0)
    return stack.executor.deploy(SHAPES[shape][0])


def unit_table(plan):
    return [(key, unit.role, unit.services, unit.placement.node_id)
            for key, unit in plan.units.items()]


def edge_table(plan):
    return [(e.producer, e.consumer, e.port,
             e.batch.max_batch if e.batch else 1) for e in plan.edges]


@pytest.mark.parametrize("shape", list(SHAPES))
class TestShapes:
    def test_units(self, shape):
        assert unit_table(deploy(shape).plan) == SHAPES[shape][1]

    def test_edges(self, shape):
        assert edge_table(deploy(shape).plan) == SHAPES[shape][2]

    def test_processes_instantiate_the_units(self, shape):
        deployment = deploy(shape)
        assert list(deployment.processes) == [row[0] for row in SHAPES[shape][1]]
        assert deployment.assignments() == {
            key: node for key, _, _, node in SHAPES[shape][1]}

    def test_routes_and_subscriptions_follow_the_edges(self, shape):
        deployment = deploy(shape)
        plan = deployment.plan
        routes = {key: [] for key in deployment.processes}
        bound = []
        for edge in plan.edges:
            if edge.producer in plan.sources:
                group = plan.groups.get(edge.consumer)
                bound += [(edge.producer, key, edge.batch) for key in
                          (group.members if group else (edge.consumer,))]
                continue
            target = (deployment.shard_groups.get(edge.consumer)
                      or deployment.processes[edge.consumer])
            routes[edge.producer].append((target, edge.port))
        assert {
            key: [(route.target, route.port) for route in process.routes]
            for key, process in deployment.processes.items()
        } == routes
        owner = {id(subscription): key for key, unit in plan.units.items()
                 for subscription in unit.subscriptions}
        created = sorted(
            (subscription.subscription_id, name, owner[id(subscription)],
             subscription.batch)
            for name, binding in deployment.bindings.items()
            for subscription in binding.subscriptions
        )
        assert [row[1:] for row in created] == bound


def test_join_partitions_each_port_on_its_own_key():
    deployment = deploy("sharded-join")
    assert deployment.plan.groups["combine"].keys_by_port \
        == (("station",), ("road",))
    assert deployment.shard_groups["combine"].keys_by_port \
        == (("station",), ("road",))


def test_placements_read_through_to_the_exit_unit():
    deployment = deploy("fused-chain-into-sharded-avg")
    placements = deployment.placements
    assert placements["keep"] is placements["slim"] \
        is deployment.plan.units["keep+slim"].placement
    assert placements["avg"] is deployment.plan.units["avg#merge"].placement
    assert placements["temp"].node_id == "edge-0"
    assert deployment.process("slim") is deployment.processes["keep+slim"]
    with pytest.raises(DeploymentError):
        deployment.process("avg")


def test_a_replaced_chain_carries_its_members_placements():
    stack = build_stack()
    deployment = stack.executor.deploy(SHAPES["fused-chain"][0])
    stack.run_until(300.0)
    stack.netsim.kill_node("hub")
    stack.run_until(600.0)  # declared dead and re-placed by now
    chain = deployment.process("keep")
    assert chain.node_id != "hub"
    for member in ("keep", "double", "slim"):
        assert deployment.placements[member].node_id == chain.node_id
        assert "down" in deployment.placements[member].reason


test_colliding_process_keys_are_rejected = row("key-collision")


class TestSloShape:
    """Watermark upstream sets and logical services come off the plan."""

    PROGRAM = program(
        "slo",
        source("temp", "temperature"), keep(), slim(), avg(), sink("out"),
        channel("temp", "keep"), channel("keep", "slim"),
        channel("slim", "avg"), channel("avg", "out"),
        'shard "avg" 2 by "station";',
        'slo "slo" watermark_lag < 200 over 0;',
    )

    @pytest.fixture
    def plane(self):
        stack = build_stack(observability=0.0)
        stack.executor.deploy(self.PROGRAM)
        return stack.obs.latency

    def test_watermark_upstreams(self, plane):
        assert {key: probe.upstreams for key, probe in plane.probes.items()} == {
            "slo:keep+slim": (),
            "slo:avg#0": ("slo:keep+slim",),
            "slo:avg#1": ("slo:keep+slim",),
            "slo:avg#merge": ("slo:avg#0", "slo:avg#1"),
            "slo:out": ("slo:avg#merge",),
        }

    def test_probes_report_under_their_logical_service(self, plane):
        assert {key: probe.service for key, probe in plane.probes.items()} == {
            "slo:keep+slim": "slo:keep+slim",
            "slo:avg#0": "slo:avg",
            "slo:avg#1": "slo:avg",
            "slo:avg#merge": "slo:avg",
            "slo:out": "slo:out",
        }
        assert list(plane.logical_health()) == ["slo:avg", "slo:keep+slim",
                                                "slo:out"]


def test_only_the_plan_builds_process_keys():
    """No code parses a process key, and only the plan composes one."""
    root = pathlib.Path(repro.__file__).parent
    splitters, composers = [], set()
    for path in root.rglob("*.py"):
        name = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("split", "rsplit", "partition")
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value == "#"):
                splitters.append(name)
            if (isinstance(node, ast.Name)
                    and node.id == "FUSED_NAME_SEPARATOR") or (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and "#merge" in node.value):
                composers.add(name)
    assert splitters == []
    assert composers == {"runtime/plan.py", "streams/fused.py"}
