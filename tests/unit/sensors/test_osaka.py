"""Unit tests for the Osaka scenario fleet."""

import pytest

from repro.network.topology import Topology
from repro.sensors.osaka import osaka_fleet
from repro.stt.spatial import representative_point


@pytest.fixture
def topo() -> Topology:
    return Topology.star(leaf_count=3)


class TestFleetComposition:
    def test_scenario_stream_types_present(self, topo):
        fleet = osaka_fleet(topo)
        types = {s.metadata.sensor_type for s in fleet}
        # The four stream types of the Section 3 scenario.
        assert {"temperature", "rain", "twitter", "traffic"} <= types

    def test_extended_roster(self, topo):
        fleet = osaka_fleet(topo, extended=True)
        types = {s.metadata.sensor_type for s in fleet}
        assert {"humidity", "wind", "pressure", "sea-level",
                "train-schedule", "flight-schedule"} <= types

    def test_unique_ids(self, topo):
        fleet = osaka_fleet(topo, extended=True)
        ids = [s.sensor_id for s in fleet]
        assert len(ids) == len(set(ids))

    def test_sensors_in_osaka_area(self, topo):
        for sensor in osaka_fleet(topo, extended=True):
            point = representative_point(sensor.metadata.location)
            # Itami airport sits just north of the metro box; allow margin.
            assert 34.5 <= point.lat <= 34.85
            assert 135.3 <= point.lon <= 135.7

    def test_sensors_spread_over_nodes(self, topo):
        fleet = osaka_fleet(topo)
        nodes = {s.metadata.node_id for s in fleet}
        assert len(nodes) == len(topo.node_ids)

    def test_empty_topology_raises(self):
        with pytest.raises(ValueError):
            osaka_fleet(Topology())

    def test_replicas_multiply_the_roster(self, topo):
        base = osaka_fleet(topo)
        tripled = osaka_fleet(topo, replicas=3)
        assert len(tripled) == 3 * len(base)
        ids = [sensor.sensor_id for sensor in tripled]
        assert len(ids) == len(set(ids))  # replica suffixes keep ids unique
        assert "osaka-temp-umeda-r2" in ids

    def test_invalid_replicas_raise(self, topo):
        with pytest.raises(ValueError):
            osaka_fleet(topo, replicas=0)


class TestRegimes:
    def test_hot_vs_cool_base(self, topo):
        hot = osaka_fleet(topo, hot=True)
        cool = osaka_fleet(topo, hot=False)
        hot_temp = next(s for s in hot if s.metadata.sensor_type == "temperature")
        cool_temp = next(s for s in cool if s.metadata.sensor_type == "temperature")
        # Probe both at mid-afternoon; hot regime must exceed 25C.
        hot_value = hot_temp.probe(14 * 3600.0)["temperature"]
        cool_value = cool_temp.probe(14 * 3600.0)["temperature"]
        assert hot_value > 25.0
        assert cool_value < 25.0
