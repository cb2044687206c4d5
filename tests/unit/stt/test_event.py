"""Unit tests for STT stamps and events."""

import pytest

from repro.errors import GranularityError
from repro.streams.tuple import assemble
from repro.stt.event import Event, SttStamp
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
            assert typed.coarsened(temporal="day") == built.coarsened(temporal="day")
            with pytest.raises(AttributeError):
                typed.time = 0.0  # still frozen

    def test_has_theme_matches_super_and_sub(self, stamp):
        assert stamp.has_theme("weather")
        assert stamp.has_theme("weather/rain")
        assert not stamp.has_theme("mobility")

    def test_with_themes_deduplicates(self, stamp):
        extended = stamp.with_themes("weather/rain", "disaster/flood")
        assert len(extended.themes) == 2

    def test_coarsen_temporal(self, stamp):
        coarse = stamp.coarsened(temporal="hour")
        assert coarse.time == 3600.0
        assert coarse.temporal_granularity.name == "hour"

    def test_coarsen_spatial(self, stamp):
        coarse = stamp.coarsened(spatial="city")
        assert isinstance(coarse.location, GridCell)
        assert coarse.spatial_granularity.name == "city"

    def test_coarsen_to_finer_raises(self, stamp):
        coarse = stamp.coarsened(temporal="day")
        with pytest.raises(GranularityError):
            coarse.coarsened(temporal="hour")

    def test_point_property(self, stamp):
        assert stamp.point == Point(34.69, 135.50)
        city = stamp.coarsened(spatial="city")
        assert city.location.bounds().contains(city.point)


class TestCompatibility:
    def test_same_hour_same_city_compatible(self):
        a = SttStamp(time=3700.0, location=Point(34.69, 135.50),
                     temporal_granularity="hour", spatial_granularity="city")
        b = SttStamp(time=3900.0, location=Point(34.70, 135.51),
                     temporal_granularity="second", spatial_granularity="point")
        assert a.compatible_with(b)
        assert b.compatible_with(a)

    def test_different_hours_incompatible(self):
        a = SttStamp(time=3700.0, location=Point(34.69, 135.50),
                     temporal_granularity="hour")
        b = SttStamp(time=7300.0, location=Point(34.69, 135.50))
        assert not a.compatible_with(b)

    def test_point_granularity_requires_equality(self):
        a = SttStamp(time=10.0, location=Point(34.69, 135.50))
        b = SttStamp(time=10.0, location=Point(34.70, 135.50))
        assert not a.compatible_with(b)
        c = SttStamp(time=10.0, location=Point(34.69, 135.50))
        assert a.compatible_with(c)


class TestEvent:
    def test_coarsened_event_keeps_value(self):
        event = Event(
            value=31.5,
            stamp=SttStamp(time=3725.0, location=Point(34.69, 135.50)),
            source="temp-1",
        )
        coarse = event.coarsened(temporal="hour")
        assert coarse.value == 31.5
        assert coarse.stamp.time == 3600.0
        assert coarse.source == "temp-1"
