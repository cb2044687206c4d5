"""Unit tests for instants, intervals, granules, alignment."""

import pytest

from repro.errors import GranularityError
from repro.stt.temporal import Instant, Interval, align_instant

_DAY = 86400.0


class TestAlignment:
    def test_align_second_is_floor(self):
        assert align_instant(12.7, "second") == 12.0

    def test_align_minute(self):
        assert align_instant(125.0, "minute") == 120.0

    def test_align_hour(self):
        assert align_instant(3725.0, "hour") == 3600.0

    def test_align_day(self):
        assert align_instant(2.5 * _DAY, "day") == 2 * _DAY

    def test_align_is_idempotent(self):
        for gran in ("second", "minute", "hour", "day", "week", "month", "year"):
            aligned = align_instant(12345678.9, gran)
            assert align_instant(aligned, gran) == aligned

    def test_align_month_boundaries(self):
        # January is 31 days: a time in early February aligns to Jan 31 end.
        jan_31 = 31 * _DAY
        assert align_instant(jan_31 + 5.0, "month") == jan_31
        assert align_instant(jan_31 - 5.0, "month") == 0.0

    def test_align_year(self):
        year = 365 * _DAY
        assert align_instant(year + 100.0, "year") == year
        assert align_instant(year - 100.0, "year") == 0.0

    def test_align_never_exceeds_input(self):
        for t in (0.0, 59.0, 3600.0, 1e7, 3.2e7):
            for gran in ("second", "minute", "hour", "day", "month", "year"):
                assert align_instant(t, gran) <= t


class TestInstant:
    def test_granule_bounds_contain_instant(self):
        instant = Instant(3725.0, "hour")
        granule = instant.granule()
        assert granule.start == 3600.0
        assert granule.end == 7200.0
        assert granule.contains(instant)


class TestInterval:
    def test_contains_is_half_open(self):
        interval = Interval(10.0, 20.0)
        assert interval.contains(10.0)
        assert interval.contains(19.999)
        assert not interval.contains(20.0)
        assert not interval.contains(9.999)

    def test_contains_instant(self):
        assert Interval(0.0, 100.0).contains(Instant(50.0, "second"))

    def test_backwards_raises(self):
        with pytest.raises(GranularityError):
            Interval(20.0, 10.0)

    def test_zero_length_allowed_but_empty(self):
        interval = Interval(10.0, 10.0)
        assert interval.length == 0.0
        assert not interval.contains(10.0)
