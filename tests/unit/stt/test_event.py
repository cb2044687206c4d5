"""Unit tests for STT stamps."""

import pytest

from repro.streams.tuple import assemble
from repro.stt.event import SttStamp
from repro.stt.granularity import spatial_granularity, temporal_granularity
from repro.stt.spatial import GridCell, Point
from repro.stt.thematic import Theme


@pytest.fixture
def stamp() -> SttStamp:
    return SttStamp(time=3725.0, location=Point(34.69, 135.50),
                    themes=("weather/rain",))


class TestSttStamp:
    def test_defaults(self, stamp):
        assert stamp.temporal_granularity.name == "second"
        assert stamp.spatial_granularity.name == "point"

    def test_string_granularities_coerced(self):
        stamp = SttStamp(
            time=0.0,
            location=Point(0, 0),
            temporal_granularity="hour",
            spatial_granularity="city",
        )
        assert stamp.temporal_granularity.name == "hour"
        assert stamp.spatial_granularity.name == "city"

    def test_string_themes_coerced(self, stamp):
        assert stamp.themes[0].path == "weather/rain"

    def test_typed_path_equals_constructor_for_typed_inputs(self):
        hour = temporal_granularity("hour")
        city = spatial_granularity("city")
        themes = (Theme("weather/rain"), Theme("disaster/flood"))
        for location in (Point(34.69, 135.50), GridCell(city, 693, 1756)):
            built = SttStamp(3725.0, location, hour, city, themes)
            typed = assemble(
                {}, 3725.0, location, hour, city, themes, "", 0).stamp
            assert typed == built and hash(typed) == hash(built)
            assert repr(typed) == repr(built)
            assert typed.temporal_granularity is hour
            assert typed.themes is themes
            with pytest.raises(AttributeError):
                typed.time = 0.0  # still frozen

    def test_has_theme_matches_super_and_sub(self, stamp):
        assert stamp.has_theme("weather")
        assert stamp.has_theme("weather/rain")
        assert not stamp.has_theme("mobility")

    def test_point_property(self, stamp):
        assert stamp.point == Point(34.69, 135.50)
        cell = GridCell(spatial_granularity("city"), 693, 1756)
        assert cell.bounds().contains(SttStamp(0.0, cell, "hour", "city").point)
