"""Unit tests for the SCN controller: discovery, placement, migration."""

from dataclasses import replace

import pytest

from repro.dsn.ast import DsnChannel, DsnProgram, DsnService, ServiceRole
from repro.dsn.scn import PlacementDecision, ScnController
from repro.errors import PlacementError, ScnError
from repro.network.qos import QosPolicy
from repro.network.topology import Topology
from repro.pubsub.broker import BrokerNetwork
from repro.pubsub.subscription import SubscriptionFilter
from repro.sensors.physical import rain_sensor, temperature_sensor
from repro.stt.spatial import Point
from tests.builders import dsn

SITE = Point(34.69, 135.50)


@pytest.fixture
def topo() -> Topology:
    return Topology.line(3, latency=0.01)


@pytest.fixture
def registry(topo):
    net = BrokerNetwork()
    net.publish(temperature_sensor("t1", SITE, "node-0").metadata)
    net.publish(rain_sensor("r1", SITE, "node-2").metadata)
    return net.registry


def make_program() -> DsnProgram:
    return dsn("src > f", "f > k", src=SubscriptionFilter(sensor_ids=("t1",)),
               f=("filter", {"condition": "temperature > 0"}), k="collector")


def placed(scn, registry, program=None, **place_options):
    """Discover and place ``program`` (default: ``make_program()``)."""
    program = program or make_program()
    return scn.place(program, scn.discover(program, registry), **place_options)


@pytest.fixture
def scn(topo):
    return ScnController(topo)


class TestDiscovery:
    def test_resolves_sensors(self, registry, scn):
        bindings = scn.discover(make_program(), registry)
        assert [m.sensor_id for m in bindings["src"]] == ["t1"]

    def test_no_match_raises(self, registry, scn):
        program = make_program()
        program.services[0] = DsnService(
            role=ServiceRole.SOURCE, name="src",
            params={"filter": {"sensor_ids": ["ghost"]}},
        )
        with pytest.raises(ScnError, match="discovery failed"):
            scn.discover(program, registry)


class TestPlacement:
    def test_operators_placed_near_data(self, topo, registry):
        placements = placed(ScnController(topo), registry)
        # Sensor t1 is on node-0; filter should land there (distance wins).
        assert placements["f"].node_id == "node-0"

    def test_source_pinned_to_sensor_node(self, topo, registry):
        placements = placed(ScnController(topo), registry)
        assert placements["src"].node_id == "node-0"

    def test_load_pushes_placement_away(self, topo, registry):
        # Saturate node-0: placement must prefer a neighbour despite distance.
        topo.node("node-0").register_process("hog", demand=950.0)
        placements = placed(ScnController(topo, distance_weight=1.0), registry, demands={"f": 100.0})
        assert placements["f"].node_id != "node-0"

    def test_dead_nodes_not_candidates(self, topo, registry):
        topo.node("node-0").fail()
        placements = placed(ScnController(topo), registry)
        assert placements["f"].node_id != "node-0"

    def test_no_live_nodes_raises(self, topo, registry):
        for node in topo.nodes:
            node.fail()
        scn = ScnController(topo)
        program = make_program()
        with pytest.raises(PlacementError):
            scn.place(program, {"src": list(registry.all())[:1]})

    def test_cyclic_channels_raise(self, topo, registry):
        program = make_program()
        program.channels.append(DsnChannel("k", "src", 0))
        scn = ScnController(topo)
        with pytest.raises(ScnError, match="cyclic"):
            scn.place(program, {})


class TestQosAdmission:
    def test_within_budget_passes(self, topo, registry):
        scn, program = ScnController(topo), make_program()
        scn.admit_qos(program, placed(scn, registry, program))

    def test_over_budget_rejected(self, registry, scn):
        program = make_program()
        program.services[2] = replace(program.services[2], qos=QosPolicy(
            qos_class="real-time", max_latency=1e-9))
        bindings = scn.discover(program, registry)
        placements = dict(scn.place(program, bindings))
        # Force the sink far from the filter so the route is non-trivial.
        placements["k"] = PlacementDecision("k", "node-2", 0.0, "forced")
        placements["f"] = PlacementDecision("f", "node-0", 0.0, "forced")
        with pytest.raises(ScnError, match="QoS admission failed"):
            scn.admit_qos(program, placements)


class TestMigration:
    def test_overload_triggers_move(self, topo):
        scn = ScnController(topo, overload_threshold=0.8)
        node = topo.node("node-0")
        node.register_process("p:heavy", demand=900.0)
        placements = {
            "p:heavy": PlacementDecision("p:heavy", "node-0", 0.0, "live")}
        moves = scn.suggest_migrations(placements, {"p:heavy": 900.0})
        assert len(moves) == 1
        assert moves[0].from_node == "node-0"
        assert moves[0].to_node in ("node-1", "node-2")
        assert "utilization" in moves[0].reason

    def test_no_move_below_threshold(self, topo):
        scn = ScnController(topo, overload_threshold=0.8)
        topo.node("node-0").register_process("p:light", demand=100.0)
        placements = {"p:light": PlacementDecision("p:light", "node-0", 0.0, "")}
        assert scn.suggest_migrations(placements, {"p:light": 100.0}) == []

    def test_pinned_services_never_move(self, topo):
        scn = ScnController(topo, overload_threshold=0.5)
        topo.node("node-0").register_process("p:src", demand=900.0)
        placements = {"p:src": PlacementDecision("p:src", "node-0", 0.0, "")}
        moves = scn.suggest_migrations(placements, {"p:src": 900.0},
                                       pinned={"p:src"})
        assert moves == []

    def test_no_move_when_nowhere_has_room(self, topo):
        scn = ScnController(topo, overload_threshold=0.8)
        for node in topo.nodes:
            node.register_process(f"bg-{node.node_id}", demand=950.0)
        placements = {
            "bg-node-0": PlacementDecision("bg-node-0", "node-0", 0.0, "")}
        moves = scn.suggest_migrations(placements, {"bg-node-0": 950.0})
        assert moves == []


class TestPlaceShards:
    """Shard placement: spread-first, pack fallback, hard failure modes."""

    def test_spreads_over_distinct_nodes(self, scn):
        decisions = scn.place_shards("agg", 3, ["node-0"], demand=1.0)
        assert [d.service for d in decisions] == ["agg#0", "agg#1", "agg#2"]
        nodes = [d.node_id for d in decisions]
        assert len(set(nodes)) == 3

    def test_packs_when_shards_exceed_nodes(self, scn):
        decisions = scn.place_shards("agg", 5, ["node-0"], demand=1.0)
        assert len(decisions) == 5
        # All three nodes are used before any node takes a second shard.
        assert len(set(d.node_id for d in decisions[:3])) == 3

    def test_avoid_excludes_nodes(self, scn):
        decisions = scn.place_shards("agg", 2, ["node-0"], demand=1.0,
                                     avoid={"node-1"})
        assert all(d.node_id != "node-1" for d in decisions)

    def test_no_live_nodes_raises(self, topo, scn):
        for node in topo.nodes:
            node.fail()
        with pytest.raises(PlacementError, match="no live nodes"):
            scn.place_shards("agg", 2, [], demand=1.0)

    def test_avoiding_everything_raises(self, scn):
        with pytest.raises(PlacementError, match="no live nodes"):
            scn.place_shards("agg", 1, [], demand=1.0,
                             avoid={"node-0", "node-1", "node-2"})

    def test_capacity_exhausted_names_the_shard(self):
        # Each node absorbs one 600-unit shard (capacity 1000); the
        # fourth shard finds every candidate full, even via packing.
        topo = Topology.line(3)
        scn = ScnController(topo)
        with pytest.raises(PlacementError,
                           match=r"capacity exhausted placing shard 3"):
            scn.place_shards("agg", 4, ["node-0"], demand=600.0)

    def test_projected_load_counts_against_capacity(self):
        topo = Topology.line(2)
        scn = ScnController(topo)
        with pytest.raises(PlacementError, match="capacity exhausted"):
            scn.place_shards("agg", 1, [], demand=600.0,
                             projected={"node-0": 500.0, "node-1": 500.0})

    def test_dead_nodes_never_chosen(self, topo, scn):
        topo.node("node-2").fail()
        decisions = scn.place_shards("agg", 4, ["node-0"], demand=1.0)
        assert all(d.node_id != "node-2" for d in decisions)
