"""Unit tests for great-circle distance."""

import pytest

from repro.stt.geo import haversine_m


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
