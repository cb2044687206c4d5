"""Unit tests for sensor discovery and organisation criteria."""

import pytest

from repro.errors import PubSubError
from repro.network.topology import Topology
from repro.pubsub.broker import BrokerNetwork
from repro.pubsub.discovery import DiscoveryService
from repro.sensors.osaka import OSAKA_AREA, osaka_fleet
from repro.stt.spatial import Box


@pytest.fixture
def discovery() -> DiscoveryService:
    topo = Topology.star(leaf_count=3)
    net = BrokerNetwork()
    for sensor in osaka_fleet(topo, extended=True):
        net.publish(sensor.metadata)
    return DiscoveryService(net.registry)


class TestFind:
    def test_by_type(self, discovery):
        temps = discovery.find(sensor_type="temperature")
        assert len(temps) == 4
        assert all(m.sensor_type == "temperature" for m in temps)

    def test_by_theme(self, discovery):
        weather = discovery.find(theme="weather")
        assert len(weather) >= 7  # temps + rain + humidity + wind + pressure

    def test_by_area(self, discovery):
        inside = discovery.find(area=OSAKA_AREA)
        nowhere = discovery.find(
            area=Box(south=0.0, west=0.0, north=1.0, east=1.0))
        assert len(inside) > 0
        assert nowhere == []

    def test_by_physical_flag(self, discovery):
        social = discovery.find(physical=False)
        assert all(not m.physical for m in social)
        assert {m.sensor_type for m in social} >= {"twitter", "traffic"}

    def test_by_frequency(self, discovery):
        fast = discovery.find(min_frequency=0.1)
        assert all(m.frequency >= 0.1 for m in fast)

    def test_results_sorted_by_id(self, discovery):
        results = discovery.find()
        ids = [m.sensor_id for m in results]
        assert ids == sorted(ids)

    def test_inverted_band_raises(self, discovery):
        with pytest.raises(PubSubError):
            discovery.find(min_frequency=10, max_frequency=1)

    def test_conjunction(self, discovery):
        results = discovery.find(sensor_type="temperature", physical=False)
        assert results == []


class TestOrganisation:
    def test_group_by_type(self, discovery):
        groups = discovery.group_by_type()
        assert "temperature" in groups and "twitter" in groups
        assert len(groups["temperature"]) == 4

    def test_group_by_location_cells(self, discovery):
        groups = discovery.group_by_location("prefecture")
        # All Osaka sensors live within one or two prefecture cells.
        assert 1 <= len(groups) <= 3
        total = sum(len(g) for g in groups.values())
        assert total == len(discovery.registry)

    def test_group_by_rate(self, discovery):
        groups = discovery.group_by_rate()
        total = sum(len(g) for g in groups.values())
        assert total == len(discovery.registry)
        # Minute-cadence sensors (temperature every 60s) land in 'minute'.
        assert any("osaka-temp" in m.sensor_id
                   for m in groups.get("minute", []))

    def test_group_by_node_covers_all(self, discovery):
        groups = discovery.group_by_node()
        total = sum(len(g) for g in groups.values())
        assert total == len(discovery.registry)

    def test_types_and_themes(self, discovery):
        roots = {t.path for t in discovery.themes()}
        assert {"weather", "mobility", "social"} <= roots
