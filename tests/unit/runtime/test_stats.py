"""Unit tests for metric primitives."""

import pytest

from repro.runtime.stats import RateEstimator, TimeSeries


def series_of(*points) -> TimeSeries:
    """Series ``x`` holding ``points`` ((time, value) pairs) in order."""
    series = TimeSeries("x")
    for time, value in points:
        series.record(time, value)
    return series


@pytest.fixture
def rate():
    return RateEstimator()


class TestTimeSeries:
    def test_record_and_reductions(self):
        series = series_of((0.0, 1.0), (10.0, 3.0), (20.0, 2.0))
        assert series.last == 2.0
        assert series.mean() == 2.0
        assert series.maximum() == 3.0
        assert len(series) == 3

    def test_empty_reductions(self):
        series = TimeSeries("x")
        assert series.last is None
        assert series.mean() == 0.0
        assert series.maximum() == 0.0

    def test_backwards_time_raises(self):
        series = series_of((10.0, 1.0))
        with pytest.raises(ValueError):
            series.record(5.0, 2.0)

    def test_equal_time_allowed(self):
        # Two samplers can legitimately fire on the same virtual instant
        # (e.g. the monitor's sampler and the liveness checker); both
        # points are kept, in arrival order, and `last` is the newest.
        series = series_of((10.0, 1.0), (10.0, 2.0))
        assert len(series) == 2
        assert series.points == [(10.0, 1.0), (10.0, 2.0)]
        assert series.last == 2.0
        series.record(10.0, 3.0)  # still the same instant: still tolerated
        assert series.last == 3.0

    def test_record_after_equal_timestamps_continues(self):
        series = series_of((10.0, 1.0), (10.0, 2.0), (11.0, 4.0))
        assert series.since(10.0) == [(10.0, 1.0), (10.0, 2.0), (11.0, 4.0)]
        with pytest.raises(ValueError):
            series.record(10.5, 5.0)

    def test_since(self):
        series = TimeSeries("x")
        for t in range(5):
            series.record(float(t), float(t))
        assert series.since(3.0) == [(3.0, 3.0), (4.0, 4.0)]

    def test_values_times(self):
        series = series_of((1.0, 10.0), (2.0, 20.0))
        assert series.values() == [10.0, 20.0]
        assert series.times() == [1.0, 2.0]

    def test_since_bisects_matching_linear_scan(self):
        series = TimeSeries("x")
        for t in range(100):
            series.record(float(t), float(t))
        for cutoff in (-1.0, 0.0, 49.5, 50.0, 99.0, 120.0):
            linear = [p for p in series.points if p[0] >= cutoff]
            assert series.since(cutoff) == linear

    def test_since_with_duplicate_timestamps_returns_all(self):
        series = series_of((1.0, 1.0), (2.0, 2.0), (2.0, 3.0), (3.0, 4.0))
        assert series.since(2.0) == [(2.0, 2.0), (2.0, 3.0), (3.0, 4.0)]

    def test_max_points_caps_retention(self):
        series = TimeSeries("x", max_points=3)
        for t in range(10):
            series.record(float(t), float(t) * 2)
        assert len(series) == 3
        assert series.points == [(7.0, 14.0), (8.0, 16.0), (9.0, 18.0)]
        assert series.last == 18.0
        # since() still works on the trimmed window.
        assert series.since(8.0) == [(8.0, 16.0), (9.0, 18.0)]

    def test_max_points_unset_is_unbounded(self):
        series = TimeSeries("x")
        for t in range(1000):
            series.record(float(t), 0.0)
        assert len(series) == 1000

    def test_max_points_validated(self):
        with pytest.raises(ValueError):
            TimeSeries("x", max_points=0)
        with pytest.raises(ValueError):
            TimeSeries("x", max_points=-5)


class TestWindow:
    def test_trailing_window_anchored_at_newest_point(self):
        series = TimeSeries("x")
        for t in (0.0, 10.0, 20.0, 30.0):
            series.record(t, t)
        assert series.window(15.0) == [(20.0, 20.0), (30.0, 30.0)]

    def test_window_covering_everything(self):
        series = series_of((0.0, 1.0), (10.0, 2.0))
        assert series.window(100.0) == [(0.0, 1.0), (10.0, 2.0)]

    def test_zero_window_keeps_the_newest_instant(self):
        series = series_of((0.0, 1.0), (10.0, 2.0))
        series.record(10.0, 3.0)  # same-instant samples both retained
        assert series.window(0.0) == [(10.0, 2.0), (10.0, 3.0)]

    def test_empty_series_yields_empty_window(self):
        assert TimeSeries("x").window(60.0) == []

    def test_negative_duration_raises(self):
        with pytest.raises(ValueError):
            TimeSeries("x").window(-1.0)


class TestRateEstimator:
    def test_first_observation_is_zero(self, rate):
        assert rate.observe(0.0, 100.0) == 0.0

    def test_rate_over_window(self, rate):
        rate.observe(0.0, 0.0)
        assert rate.observe(10.0, 50.0) == 5.0
        assert rate.observe(20.0, 150.0) == 10.0

    def test_no_time_passed_keeps_rate(self, rate):
        rate.observe(0.0, 0.0)
        rate.observe(10.0, 50.0)
        assert rate.observe(10.0, 60.0) == 5.0  # unchanged

    def test_counter_reset_clamped_to_zero(self, rate):
        rate.observe(0.0, 100.0)
        assert rate.observe(10.0, 0.0) == 0.0  # never negative

    def test_reset(self, rate):
        rate.observe(0.0, 0.0)
        rate.observe(10.0, 100.0)
        rate.reset()
        assert rate.rate == 0.0
        assert rate.observe(20.0, 500.0) == 0.0  # first after reset
