"""Unit tests for spatial objects and the granularity grid."""

import pytest

from repro.errors import CoordinateError, GranularityError
from repro.stt.spatial import (
    Box, GridCell, Point, grid_cell_for, representative_point, within,
)


class TestPoint:
    def test_valid_construction(self):
        point = Point(34.69, 135.50)
        assert point.lat == 34.69

    @pytest.mark.parametrize("lat,lon", [(91.0, 0.0), (-91.0, 0.0),
                                          (0.0, 181.0), (0.0, -181.0)])
    def test_out_of_range_raises(self, lat, lon):
        with pytest.raises(CoordinateError):
            Point(lat, lon)

    def test_distance_to_self_is_zero(self):
        point = Point(34.69, 135.50)
        assert point.distance_m(point) == 0.0

    def test_distance_osaka_tokyo_plausible(self):
        osaka = Point(34.6937, 135.5023)
        tokyo = Point(35.6762, 139.6503)
        distance = osaka.distance_m(tokyo)
        assert 380_000 < distance < 420_000  # ~400 km


class TestBox:
    def test_from_corners_normalises(self):
        box = Box.from_corners(Point(34.8, 135.7), Point(34.5, 135.3))
        assert box.south == 34.5 and box.north == 34.8
        assert box.west == 135.3 and box.east == 135.7

    def test_invalid_orientation_raises(self):
        with pytest.raises(CoordinateError):
            Box(south=35.0, west=135.0, north=34.0, east=136.0)

    def test_contains_boundary_inclusive(self):
        box = Box(south=34.0, west=135.0, north=35.0, east=136.0)
        assert box.contains(Point(34.0, 135.0))
        assert box.contains(Point(35.0, 136.0))
        assert not box.contains(Point(33.999, 135.5))

    def test_center(self):
        box = Box(south=34.0, west=135.0, north=36.0, east=137.0)
        assert box.center() == Point(35.0, 136.0)


class TestGrid:
    def test_cell_contains_its_point(self):
        point = Point(34.69, 135.50)
        cell = grid_cell_for(point, "city")
        assert cell.bounds().contains(point)

    def test_same_cell_for_nearby_points(self):
        a = grid_cell_for(Point(34.69, 135.50), "prefecture")
        b = grid_cell_for(Point(34.70, 135.51), "prefecture")
        assert a == b

    def test_different_cells_for_distant_points(self):
        a = grid_cell_for(Point(34.69, 135.50), "block")
        b = grid_cell_for(Point(35.69, 139.50), "block")
        assert a != b

    def test_point_granularity_raises(self):
        with pytest.raises(GranularityError):
            grid_cell_for(Point(0.0, 0.0), "point")

    def test_grid_cell_rejects_point_granularity(self):
        with pytest.raises(GranularityError):
            GridCell("point", 0, 0)

    def test_cell_center_is_inside_bounds(self):
        cell = grid_cell_for(Point(34.69, 135.50), "district")
        assert cell.bounds().contains(cell.center())


class TestHelpers:
    def test_representative_point(self):
        point = Point(1.0, 2.0)
        assert representative_point(point) is point
        box = Box(south=0, west=0, north=2, east=4)
        assert representative_point(box) == Point(1.0, 2.0)
        cell = grid_cell_for(point, "city")
        assert cell.bounds().contains(representative_point(cell))

    def test_within(self):
        box = Box(south=34.0, west=135.0, north=35.0, east=136.0)
        assert within(Point(34.5, 135.5), box)
        assert not within(Point(36.0, 135.5), box)
