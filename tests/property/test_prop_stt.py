"""Property-based tests for the STT data model."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stt.geo import LocalGrid, from_web_mercator, haversine_m, to_web_mercator
from repro.stt.granularity import (
    SPATIAL_GRANULARITIES,
    TEMPORAL_GRANULARITIES,
    common_temporal,
    temporal_granularity,
)
from repro.stt.spatial import (
    METERS_PER_DEG_LAT,
    GridCell,
    Point,
    cell_index,
    grid_cell_for,
)
from repro.stt.temporal import align_instant, granule_index
from repro.stt.units import DEFAULT_UNITS

granularities = st.sampled_from(sorted(TEMPORAL_GRANULARITIES))
times = st.floats(min_value=0.0, max_value=3.0e8, allow_nan=False)
lats = st.floats(min_value=-80.0, max_value=80.0, allow_nan=False)
lons = st.floats(min_value=-179.0, max_value=179.0, allow_nan=False)


class TestTemporalAlignment:
    @given(times, granularities)
    def test_alignment_idempotent(self, t, gran):
        once = align_instant(t, gran)
        assert align_instant(once, gran) == once

    @given(times, granularities)
    def test_alignment_floors(self, t, gran):
        aligned = align_instant(t, gran)
        assert aligned <= t
        # Months run up to 31 days and years 365; nominal sizes are 30/365.
        slack = {"month": 31 * 86400.0, "year": 365 * 86400.0}
        limit = slack.get(gran, temporal_granularity(gran).seconds)
        assert t - aligned <= limit + 1e-6

    @given(times, times, granularities)
    def test_same_index_iff_same_aligned_start(self, t1, t2, gran):
        same_index = granule_index(t1, gran) == granule_index(t2, gran)
        same_start = align_instant(t1, gran) == align_instant(t2, gran)
        assert same_index == same_start

    @given(times, granularities, granularities)
    def test_coarser_alignment_is_no_later_for_nested(self, t, g1, g2):
        # Weeks do not nest inside months/years, so the property only
        # holds for nested pairs (the chains second..week and day..year).
        fine, coarse = sorted(
            (temporal_granularity(g1), temporal_granularity(g2)),
            key=lambda g: g.rank,
        )
        if fine.name == "week" and coarse.name in ("month", "year"):
            return
        assert align_instant(t, coarse) <= align_instant(t, fine) + 1e-9

    @given(st.lists(granularities, min_size=1, max_size=4))
    def test_common_temporal_is_upper_bound(self, grans):
        top = common_temporal(*grans)
        assert all(temporal_granularity(g).rank <= top.rank for g in grans)
        assert top.name in [temporal_granularity(g).name for g in grans]


GRIDDED = [g for g in SPATIAL_GRANULARITIES.values() if g.cell_meters > 0]


@st.composite
def grid_points(draw):
    """A gridded granularity and a valid lat/lon: anywhere on the globe,
    a pole / the antimeridian, or exactly on one of the grid's lines."""
    gran = draw(st.sampled_from(GRIDDED))
    d = gran.cell_meters / METERS_PER_DEG_LAT

    def axis(low, high):
        on_line = st.integers(0, int((high - low) / d)).map(
            lambda k: min(high, low + k * d))
        return st.one_of(
            st.floats(min_value=low, max_value=high, allow_nan=False),
            st.sampled_from([low, high, 0.0]),
            on_line,
        )

    return gran, draw(axis(-90.0, 90.0)), draw(axis(-180.0, 180.0))


def _reference_cell(lat, lon, gran):
    """Cell assignment the slow way: floor, then move to the neighbour
    whose ``bounds()`` contain the point."""
    d = gran.cell_meters / METERS_PER_DEG_LAT
    row, col = int((lat + 90.0) // d), int((lon + 180.0) // d)
    bounds = GridCell(gran, row, col).bounds()
    if lat < bounds.south:
        row -= 1
    elif lat > bounds.north:
        row += 1
    if lon < bounds.west:
        col -= 1
    elif lon > bounds.east:
        col += 1
    return row, col


class TestSpatialGrid:
    @settings(max_examples=500)
    @given(grid_points())
    def test_cell_index_contains_point_and_is_the_only_assignment(self, drawn):
        gran, lat, lon = drawn
        row, col = cell_index(lat, lon, gran)
        point = Point(lat, lon)
        assert GridCell(gran, row, col).bounds().contains(point)
        cell = grid_cell_for(point, gran)
        assert (cell.row, cell.col) == (row, col)
        assert _reference_cell(lat, lon, gran) == (row, col)

    def test_cell_index_pinned(self):
        district = SPATIAL_GRANULARITIES["district"]
        assert cell_index(34.6, 135.4, district) == (13870, 35110)

    @given(lats, lons)
    def test_cell_contains_point(self, lat, lon):
        point = Point(lat, lon)
        for gran in ("block", "city", "prefecture"):
            cell = grid_cell_for(point, gran)
            assert cell.bounds().contains(point)

    @given(lats, lons, lats, lons)
    def test_same_cell_implies_bounded_distance(self, lat1, lon1, lat2, lon2):
        a, b = Point(lat1, lon1), Point(lat2, lon2)
        cell_a = grid_cell_for(a, "city")
        cell_b = grid_cell_for(b, "city")
        if cell_a == cell_b:
            # Cell diagonal in degrees, converted loosely to meters.
            max_deg = cell_a._deg_lat * math.sqrt(2)
            assert abs(a.lat - b.lat) <= max_deg + 1e-9


class TestGeoRoundTrips:
    @given(lats, lons)
    def test_web_mercator_round_trip(self, lat, lon):
        x, y = to_web_mercator(lat, lon)
        back_lat, back_lon = from_web_mercator(x, y)
        assert math.isclose(back_lat, lat, abs_tol=1e-9)
        assert math.isclose(back_lon, lon, abs_tol=1e-9)

    @given(lats, lons, st.floats(min_value=-2e4, max_value=2e4),
           st.floats(min_value=-2e4, max_value=2e4))
    def test_local_grid_round_trip(self, olat, olon, east, north):
        grid = LocalGrid(olat, olon)
        lat, lon = grid.to_wgs84(east, north)
        back = grid.to_local(lat, lon)
        assert math.isclose(back[0], east, abs_tol=1e-6)
        assert math.isclose(back[1], north, abs_tol=1e-6)

    @given(lats, lons, lats, lons)
    def test_haversine_symmetric_and_nonnegative(self, lat1, lon1, lat2, lon2):
        d1 = haversine_m(lat1, lon1, lat2, lon2)
        d2 = haversine_m(lat2, lon2, lat1, lon1)
        assert d1 >= 0.0
        assert math.isclose(d1, d2, rel_tol=1e-12, abs_tol=1e-9)


class TestUnits:
    unit_pairs = st.sampled_from([
        ("meter", "yard"), ("meter", "mile"), ("celsius", "fahrenheit"),
        ("celsius", "kelvin"), ("kmh", "mps"), ("kmh", "knot"),
        ("hpa", "atm"), ("percent", "fraction"), ("hour", "second"),
    ])
    values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)

    @given(values, unit_pairs)
    def test_conversion_round_trip(self, value, pair):
        src, dst = pair
        there = DEFAULT_UNITS.convert(value, src, dst)
        back = DEFAULT_UNITS.convert(there, dst, src)
        assert math.isclose(back, value, rel_tol=1e-9, abs_tol=1e-6)

    @given(values, values, unit_pairs)
    def test_conversion_is_affine_monotone(self, a, b, pair):
        src, dst = pair
        if a < b:
            assert (DEFAULT_UNITS.convert(a, src, dst)
                    <= DEFAULT_UNITS.convert(b, src, dst))
