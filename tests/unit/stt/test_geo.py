"""Unit tests for coordinate conversions."""

import pytest

from repro.errors import CoordinateError
from repro.stt.geo import (
    CoordinateSystem,
    LocalGrid,
    convert_coordinates,
    from_web_mercator,
    haversine_m,
    to_web_mercator,
)


@pytest.fixture
def grid():
    return LocalGrid(34.69, 135.50)


class TestWebMercator:
    def test_origin_maps_to_origin(self):
        x, y = to_web_mercator(0.0, 0.0)
        assert x == 0.0
        assert y == pytest.approx(0.0, abs=1e-6)

    def test_round_trip(self):
        for lat, lon in [(34.69, 135.50), (-33.87, 151.21), (51.5, -0.13)]:
            x, y = to_web_mercator(lat, lon)
            back = from_web_mercator(x, y)
            assert back[0] == pytest.approx(lat, abs=1e-9)
            assert back[1] == pytest.approx(lon, abs=1e-9)

    def test_polar_latitudes_rejected(self):
        with pytest.raises(CoordinateError):
            to_web_mercator(89.0, 0.0)

    def test_longitude_monotone_in_x(self):
        x1, _ = to_web_mercator(0.0, 10.0)
        x2, _ = to_web_mercator(0.0, 20.0)
        assert x2 > x1


class TestLocalGrid:
    def test_origin_is_zero(self, grid):
        assert grid.to_local(34.69, 135.50) == (0.0, 0.0)

    def test_round_trip_metro_scale(self, grid):
        lat, lon = 34.75, 135.58
        east, north = grid.to_local(lat, lon)
        back = grid.to_wgs84(east, north)
        assert back[0] == pytest.approx(lat, abs=1e-9)
        assert back[1] == pytest.approx(lon, abs=1e-9)

    def test_north_offset_sign(self, grid):
        _, north = grid.to_local(34.79, 135.50)
        assert north > 0
        _, south = grid.to_local(34.59, 135.50)
        assert south < 0

    def test_absurd_offset_raises(self, grid):
        with pytest.raises(CoordinateError):
            grid.to_wgs84(0.0, 1e9)


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_m(10.0, 20.0, 10.0, 20.0) == 0.0

    def test_symmetry(self):
        d1 = haversine_m(34.69, 135.50, 35.68, 139.65)
        d2 = haversine_m(35.68, 139.65, 34.69, 135.50)
        assert d1 == pytest.approx(d2)

    def test_one_degree_latitude(self):
        # ~111 km per degree of latitude.
        assert haversine_m(0.0, 0.0, 1.0, 0.0) == pytest.approx(111_000, rel=0.01)


class TestConvertCoordinates:
    def test_identity_system(self):
        assert convert_coordinates(34.69, 135.50, "wgs84", "wgs84") == (34.69, 135.50)

    def test_wgs84_to_mercator_and_back(self):
        x, y = convert_coordinates(34.69, 135.50, "wgs84", "web-mercator")
        lat, lon = convert_coordinates(x, y, "web-mercator", "wgs84")
        assert (lat, lon) == (pytest.approx(34.69), pytest.approx(135.50))

    def test_local_requires_grid(self):
        with pytest.raises(CoordinateError, match="LocalGrid"):
            convert_coordinates(34.69, 135.50, "wgs84", "local-enu")

    def test_full_triangle(self, grid):
        east, north = convert_coordinates(34.70, 135.52, "wgs84", "local-enu",
                                          grid=grid)
        x, y = convert_coordinates(east, north, "local-enu", "web-mercator", grid=grid)
        lat, lon = convert_coordinates(x, y, "web-mercator", "wgs84")
        assert lat == pytest.approx(34.70, abs=1e-6)
        assert lon == pytest.approx(135.52, abs=1e-6)

    def test_system_parse(self):
        assert CoordinateSystem.parse("WEB_MERCATOR") is CoordinateSystem.WEB_MERCATOR
        with pytest.raises(CoordinateError):
            CoordinateSystem.parse("utm-zone-53")
