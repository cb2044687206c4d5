"""Unit tests for warehouse dimensions."""

import pytest

from repro.errors import WarehouseError
from repro.stt.spatial import Point
from repro.stt.thematic import Theme
from repro.warehouse.dimensions import (
    SourceDimension, SpaceDimension, ThemeDimension, TimeDimension,
)


class TestTimeDimension:
    def test_same_granule_same_key(self):
        dim = TimeDimension()
        assert dim.key_for(3700.0, "hour") == dim.key_for(3900.0, "hour")

    def test_different_granules_differ(self):
        dim = TimeDimension()
        assert dim.key_for(3700.0, "hour") != dim.key_for(7300.0, "hour")

    def test_granularity_levels_distinct(self):
        dim = TimeDimension()
        assert dim.key_for(3700.0, "hour") != dim.key_for(3700.0, "day")

    def test_member_round_trip(self):
        dim = TimeDimension()
        key = dim.key_for(3700.0, "hour")
        member = dim.member(key)
        assert member.granularity == "hour"
        assert member.start == 3600.0

    def test_unknown_key_raises(self):
        with pytest.raises(WarehouseError):
            TimeDimension().member(99)


class TestSpaceDimension:
    def test_same_cell_same_key(self):
        dim = SpaceDimension()
        a = dim.key_for(Point(34.69, 135.50), "city")
        b = dim.key_for(Point(34.70, 135.51), "city")
        assert a == b

    def test_point_granularity_interned_at_block(self):
        dim = SpaceDimension()
        key = dim.key_for(Point(34.69, 135.50), "point")
        assert dim.member(key).granularity == "block"

    def test_cell_reconstruction(self):
        dim = SpaceDimension()
        key = dim.key_for(Point(34.69, 135.50), "city")
        cell = dim.cell(key)
        assert cell.bounds().contains(Point(34.69, 135.50))


class TestThemeDimension:
    def test_interning(self):
        dim = ThemeDimension()
        a = dim.key_for("weather/rain")
        b = dim.key_for(Theme("weather/rain"))
        assert a == b
        assert dim.member(a) == "weather/rain"

    def test_keys_matching_hierarchy(self):
        dim = ThemeDimension()
        rain = dim.key_for("weather/rain")
        temp = dim.key_for("weather/temperature")
        traffic = dim.key_for("mobility/traffic")
        matched = dim.keys_matching("weather")
        assert matched == {rain, temp}


class TestSourceDimension:
    def test_unknown_source_label(self):
        dim = SourceDimension()
        key = dim.key_for("")
        assert dim.member(key) == "(unknown)"

    def test_len(self):
        dim = SourceDimension()
        dim.key_for("a")
        dim.key_for("b")
        dim.key_for("a")
        assert len(dim) == 2
