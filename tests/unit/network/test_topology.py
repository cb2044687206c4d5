"""Unit tests for the topology and routing."""

import pytest

from repro.errors import NetworkError, UnknownNodeError, UnreachableError
from repro.network.topology import Topology


@pytest.fixture
def diamond() -> Topology:
    """a - b - d and a - c - d, with the b path faster."""
    topo = Topology()
    for name in "abcd":
        topo.add_node(name)
    topo.add_link("a", "b", latency=0.001)
    topo.add_link("b", "d", latency=0.001)
    topo.add_link("a", "c", latency=0.010)
    topo.add_link("c", "d", latency=0.010)
    return topo


class TestConstruction:
    def test_add_node_by_id(self):
        topo = Topology()
        node = topo.add_node("n1", capacity=123.0)
        assert node.capacity == 123.0
        assert "n1" in topo

    def test_duplicate_node_raises(self):
        topo = Topology()
        topo.add_node("n1")
        with pytest.raises(NetworkError, match="already"):
            topo.add_node("n1")

    def test_link_unknown_node_raises(self):
        topo = Topology()
        topo.add_node("a")
        with pytest.raises(UnknownNodeError):
            topo.add_link("a", "ghost")

    def test_duplicate_link_raises(self, diamond):
        with pytest.raises(NetworkError, match="already"):
            diamond.add_link("a", "b")

    def test_lookups(self, diamond):
        assert diamond.node("a").node_id == "a"
        assert diamond.link("b", "a").key == ("a", "b")
        with pytest.raises(UnknownNodeError):
            diamond.node("ghost")
        with pytest.raises(NetworkError):
            diamond.link("a", "d")

    def test_neighbors(self, diamond):
        assert diamond.neighbors("a") == ["b", "c"]

    def test_len(self, diamond):
        assert len(diamond) == 4


class TestRouting:
    def test_prefers_lower_latency(self, diamond):
        assert diamond.route("a", "d") == ["a", "b", "d"]

    def test_self_route(self, diamond):
        assert diamond.route("a", "a") == ["a"]

    def test_reroutes_around_dead_node(self, diamond):
        diamond.node("b").fail()
        assert diamond.route("a", "d") == ["a", "c", "d"]

    def test_reroutes_around_dead_link(self, diamond):
        diamond.link("a", "b").fail()
        assert diamond.route("a", "d") == ["a", "c", "d"]

    def test_unreachable_raises(self, diamond):
        diamond.node("b").fail()
        diamond.node("c").fail()
        with pytest.raises(UnreachableError):
            diamond.route("a", "d")

    def test_route_from_dead_node_raises(self, diamond):
        diamond.node("a").fail()
        with pytest.raises(UnreachableError, match="down"):
            diamond.route("a", "d")

    def test_path_latency(self, diamond):
        assert diamond.path_latency(["a", "b", "d"]) == pytest.approx(0.002)
        assert diamond.route_latency("a", "d") == pytest.approx(0.002)


class TestRouteCache:
    def test_generation_bumps_on_membership_changes(self):
        topo = Topology()
        start = topo.generation
        topo.add_node("a")
        topo.add_node("b")
        assert topo.generation > start
        mark = topo.generation
        topo.add_link("a", "b")
        assert topo.generation > mark

    def test_generation_bumps_on_liveness_and_routing_attrs(self, diamond):
        mark = diamond.generation
        diamond.node("b").fail()
        assert diamond.generation > mark
        mark = diamond.generation
        diamond.node("b").recover()
        assert diamond.generation > mark
        mark = diamond.generation
        diamond.link("a", "b").latency = 0.5
        assert diamond.generation > mark
        mark = diamond.generation
        diamond.link("a", "b").bandwidth = 1.0
        assert diamond.generation > mark

    def test_no_bump_on_noop_write(self, diamond):
        link = diamond.link("a", "b")
        mark = diamond.generation
        link.latency = link.latency
        diamond.node("b").up = True  # already up
        assert diamond.generation == mark

    def test_non_routing_attrs_do_not_invalidate(self, diamond):
        diamond.route("a", "d")
        mark = diamond.generation
        diamond.link("a", "b").account(100.0)
        diamond.node("b").work_done = 5.0
        assert diamond.generation == mark

    def test_cached_route_updates_after_failure(self, diamond):
        assert diamond.route("a", "d") == ["a", "b", "d"]
        diamond.node("b").fail()
        assert diamond.route("a", "d") == ["a", "c", "d"]

    def test_returned_path_is_a_fresh_list(self, diamond):
        path = diamond.route("a", "d")
        path.append("junk")
        assert diamond.route("a", "d") == ["a", "b", "d"]

    def test_unreachable_is_cached_and_revivable(self, diamond):
        diamond.node("b").fail()
        diamond.node("c").fail()
        for _ in range(2):  # second raise comes from the cache
            with pytest.raises(UnreachableError):
                diamond.route("a", "d")
        diamond.node("c").recover()
        assert diamond.route("a", "d") == ["a", "c", "d"]

    def test_dead_endpoint_detected_with_warm_cache(self, diamond):
        diamond.route("a", "d")
        diamond.node("d").fail()
        with pytest.raises(UnreachableError, match="down"):
            diamond.route("a", "d")

    def test_route_info_matches_route(self, diamond):
        info = diamond.route_info("a", "d")
        assert list(info.path) == diamond.route("a", "d")
        assert [link.latency for link in info.links] == [0.001, 0.001]
        assert diamond.route_latency("a", "d") == pytest.approx(
            diamond.path_latency(["a", "b", "d"]))

    def test_uncached_is_the_oracle(self, diamond):
        diamond.route("a", "d")
        diamond.link("b", "d").latency = 1.0  # b path now slower
        assert diamond.route("a", "d") == diamond.route_uncached("a", "d")
        assert diamond.route("a", "d") == ["a", "c", "d"]


class TestBuilders:
    def test_star(self):
        topo = Topology.star(leaf_count=5)
        assert len(topo) == 6
        assert topo.neighbors("hub") == [f"edge-{i}" for i in range(5)]
        # Hub gets double capacity.
        assert topo.node("hub").capacity == 2 * topo.node("edge-0").capacity

    def test_line(self):
        topo = Topology.line(node_count=4)
        assert topo.route("node-0", "node-3") == ["node-0", "node-1", "node-2",
                                                  "node-3"]

    def test_line_single_node(self):
        topo = Topology.line(node_count=1)
        assert len(topo) == 1

    def test_line_zero_raises(self):
        with pytest.raises(NetworkError):
            Topology.line(node_count=0)
