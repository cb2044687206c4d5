"""Unit tests for social sensor models."""

import numpy as np

from repro.sensors.osaka import OSAKA_AREA
from repro.sensors.social import (
    flight_schedule_sensor, traffic_sensor, train_schedule_sensor,
    twitter_sensor,
)
from repro.stt.spatial import Point
from tests.builders import attached

SITE = Point(34.69, 135.50)
_DAY = 86400.0


def collect(sensor, hours=24.0):
    clock, _, seen = attached(sensor)
    clock.run_until(hours * 3600.0)
    return seen


class TestTwitter:
    def test_marked_social(self):
        sensor = twitter_sensor("tw1", OSAKA_AREA, "edge-0")
        assert not sensor.metadata.physical
        assert sensor.metadata.has_theme("social/twitter")

    def test_payload_shape(self):
        readings = collect(twitter_sensor("tw1", OSAKA_AREA, "edge-0"), hours=4.0)
        assert readings
        tweet = readings[0]
        assert set(tweet.payload) == {"user", "text", "hashtags", "retweets"}
        assert isinstance(tweet["retweets"], int)
        assert "#" in tweet["hashtags"]

    def test_rate_below_advertised_max(self):
        sensor = twitter_sensor("tw1", OSAKA_AREA, "edge-0", frequency=0.5)
        readings = collect(sensor, hours=6.0)
        assert 0 < len(readings) < 0.5 * 6 * 3600

    def test_burst_hour_busier_than_quiet(self):
        sensor = twitter_sensor("tw1", OSAKA_AREA, "edge-0", burst_hour=18)
        readings = collect(sensor, hours=24.0)
        def count_in(h0, h1):
            return sum(1 for r in readings
                       if h0 <= (r.stamp.time % _DAY) / 3600 < h1)
        assert count_in(17, 19) > count_in(3, 5)

    def test_stamped_with_area(self):
        readings = collect(twitter_sensor("tw1", OSAKA_AREA, "edge-0"), hours=2.0)
        assert readings[0].stamp.location == OSAKA_AREA


class TestTraffic:
    def test_payload_shape(self):
        readings = collect(traffic_sensor("tr1", SITE, "edge-0"), hours=4.0)
        assert set(readings[0].payload) == {"road", "vehicles_per_hour",
                                            "mean_speed", "congestion"}

    def test_rush_hour_congestion(self):
        readings = collect(traffic_sensor("tr1", SITE, "edge-0"), hours=24.0)

        def mean_congestion(h0, h1):
            values = [r["congestion"] for r in readings
                      if h0 <= (r.stamp.time % _DAY) / 3600 < h1]
            return np.mean(values)

        assert mean_congestion(7, 9) > mean_congestion(2, 4)
        assert mean_congestion(17, 19) > mean_congestion(2, 4)

    def test_speed_drops_with_congestion(self):
        readings = collect(traffic_sensor("tr1", SITE, "edge-0"), hours=24.0)
        congested = [r["mean_speed"] for r in readings if r["congestion"] > 0.8]
        free = [r["mean_speed"] for r in readings if r["congestion"] < 0.3]
        assert np.mean(congested) < np.mean(free)

    def test_bounds(self):
        readings = collect(traffic_sensor("tr1", SITE, "edge-0"), hours=24.0)
        assert all(0 <= r["congestion"] <= 1 for r in readings)
        assert all(r["mean_speed"] >= 5.0 for r in readings)


class TestSchedules:
    def test_train_feed_shape(self):
        readings = collect(train_schedule_sensor("st1", SITE, "edge-0"), hours=12.0)
        assert readings
        update = readings[0]
        assert set(update.payload) == {"service", "scheduled_time",
                                       "delay_minutes", "cancelled"}
        assert isinstance(update["cancelled"], bool)
        assert update["delay_minutes"] >= 0.0

    def test_train_feed_is_sparse(self):
        sensor = train_schedule_sensor("st1", SITE, "edge-0", frequency=1.0 / 60.0)
        readings = collect(sensor, hours=12.0)
        max_possible = 12 * 60
        assert 0 < len(readings) < max_possible

    def test_flight_delays_longer_than_train(self):
        trains = collect(train_schedule_sensor("st1", SITE, "edge-0"), hours=48.0)
        flights = collect(flight_schedule_sensor("fl1", SITE, "edge-0"), hours=48.0)
        assert flights and trains
        assert (np.mean([f["delay_minutes"] for f in flights])
                > np.mean([t["delay_minutes"] for t in trains]))

    def test_city_granularity(self):
        readings = collect(train_schedule_sensor("st1", SITE, "edge-0"), hours=12.0)
        assert readings[0].stamp.temporal_granularity.name == "minute"
        assert readings[0].stamp.spatial_granularity.name == "city"
