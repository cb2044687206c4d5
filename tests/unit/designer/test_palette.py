"""Unit tests for the designer palette."""

import pytest

from repro.designer.palette import OPERATOR_PALETTE, Palette
from repro.network.topology import Topology
from repro.pubsub.broker import BrokerNetwork
from repro.sensors.osaka import osaka_fleet


@pytest.fixture
def palette() -> Palette:
    net = BrokerNetwork()
    for sensor in osaka_fleet(Topology.star(leaf_count=2)):
        net.publish(sensor.metadata)
    return Palette(net.registry)


class TestOperatorPalette:
    def test_one_entry_per_table1_operation(self):
        names = {entry.name for entry in OPERATOR_PALETTE}
        assert names == {
            "filter", "transform", "validate", "virtual-property",
            "cull-time", "cull-space", "aggregation", "join",
            "trigger-on", "trigger-off",
        }

    def test_categories(self):
        by_category = {}
        for entry in OPERATOR_PALETTE:
            by_category.setdefault(entry.category, set()).add(entry.name)
        assert "aggregation" in by_category["windowed"]
        assert "join" in by_category["windowed"]
        assert "trigger-on" in by_category["control"]
        assert "filter" in by_category["per-tuple"]

    def test_parameters_declared(self):
        entry = next(e for e in OPERATOR_PALETTE if e.name == "aggregation")
        assert set(entry.parameters) == {"interval", "attributes", "function"}


class TestSourcePalette:
    @pytest.mark.parametrize("criterion", ["type", "location", "rate", "node"])
    def test_organisation_criteria(self, palette, criterion):
        groups = palette.sources(organise_by=criterion)
        total = sum(len(group) for group in groups.values())
        assert total == len(palette.discovery.registry)

    def test_unknown_criterion_raises(self, palette):
        with pytest.raises(ValueError, match="unknown organisation"):
            palette.sources(organise_by="vibe")
