"""Unit tests for physical sensor models."""

import numpy as np
import pytest

from repro.errors import PubSubError
from repro.sensors.physical import (
    humidity_sensor, pressure_sensor, rain_sensor, sea_level_sensor,
    temperature_sensor, wind_sensor,
)
from repro.stt.spatial import Point
from tests.builders import attached

SITE = Point(34.69, 135.50)
_DAY = 86400.0


def collect(sensor, hours=24.0, node="edge-0"):
    """Attach a sensor to a fresh local stack and collect its output."""
    clock, _, seen = attached(sensor, node)
    clock.run_until(hours * 3600.0)
    return seen


class TestTemperature:
    def test_schema_and_metadata(self):
        sensor = temperature_sensor("t1", SITE, "edge-0")
        assert sensor.metadata.sensor_type == "temperature"
        assert "temperature" in sensor.metadata.schema
        assert sensor.metadata.schema.attribute("temperature").unit == "celsius"
        assert sensor.metadata.has_theme("weather/temperature")

    def test_emits_at_advertised_frequency(self):
        sensor = temperature_sensor("t1", SITE, "edge-0", frequency=1.0 / 60.0)
        readings = collect(sensor, hours=1.0)
        assert len(readings) == 60

    def test_diurnal_cycle_peaks_afternoon(self):
        sensor = temperature_sensor("t1", SITE, "edge-0", base_temp=22.0,
                                    amplitude=6.0, noise=0.0)
        readings = collect(sensor, hours=24.0)
        by_hour = {}
        for reading in readings:
            by_hour.setdefault(int(reading.stamp.time % _DAY // 3600), []).append(
                reading["temperature"]
            )
        hottest = max(by_hour, key=lambda h: np.mean(by_hour[h]))
        coldest = min(by_hour, key=lambda h: np.mean(by_hour[h]))
        assert 12 <= hottest <= 16  # peaks ~14:00
        assert coldest in (0, 1, 2, 3, 23)

    def test_hot_regime_crosses_25(self):
        sensor = temperature_sensor("t1", SITE, "edge-0", base_temp=26.0)
        readings = collect(sensor, hours=24.0)
        afternoon = [r["temperature"] for r in readings
                     if 12 <= (r.stamp.time % _DAY) / 3600 <= 16]
        assert np.mean(afternoon) > 25.0

    def test_deterministic_per_seed(self):
        a = collect(temperature_sensor("t1", SITE, "edge-0", seed=7), hours=1.0)
        b = collect(temperature_sensor("t1", SITE, "edge-0", seed=7), hours=1.0)
        assert [r["temperature"] for r in a] == [r["temperature"] for r in b]
        c = collect(temperature_sensor("t1", SITE, "edge-0", seed=8), hours=1.0)
        assert [r["temperature"] for r in a] != [r["temperature"] for r in c]

    def test_different_ids_differ(self):
        a = collect(temperature_sensor("t1", SITE, "edge-0"), hours=1.0)
        b = collect(temperature_sensor("t2", SITE, "edge-0"), hours=1.0)
        assert [r["temperature"] for r in a] != [r["temperature"] for r in b]


class TestHumidity:
    def test_bounded_fraction(self):
        readings = collect(humidity_sensor("h1", SITE, "edge-0"), hours=24.0)
        values = [r["humidity"] for r in readings]
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_anticorrelated_with_time_of_day(self):
        readings = collect(humidity_sensor("h1", SITE, "edge-0", noise=0.0),
                           hours=24.0)
        afternoon = np.mean([r["humidity"] for r in readings
                             if 13 <= (r.stamp.time % _DAY) / 3600 <= 15])
        night = np.mean([r["humidity"] for r in readings
                         if (r.stamp.time % _DAY) / 3600 <= 3])
        assert afternoon < night


class TestRain:
    def test_bursty_episodes(self):
        readings = collect(rain_sensor("r1", SITE, "edge-0"), hours=48.0)
        values = [r["rain_rate"] for r in readings]
        assert all(v >= 0.0 for v in values)
        wet = [v > 0 for v in values]
        assert 0 < sum(wet) < len(wet)  # some rain, not constant
        # Wet readings cluster: P(wet | previous wet) > P(wet).
        wet_after_wet = sum(
            1 for a, b in zip(wet, wet[1:]) if a and b) / max(1, sum(wet[:-1]))
        assert wet_after_wet > sum(wet) / len(wet)

    def test_torrential_episodes_exist(self):
        readings = collect(rain_sensor("r1", SITE, "edge-0"), hours=72.0)
        assert any(r["rain_rate"] > 20.0 for r in readings)


class TestWindPressureSea:
    def test_wind_non_negative_with_gusts(self):
        readings = collect(wind_sensor("w1", SITE, "edge-0"), hours=24.0)
        speeds = [r["wind_speed"] for r in readings]
        assert all(s >= 0 for s in speeds)
        assert max(speeds) > np.mean(speeds) * 2  # gusts stick out
        assert all(0 <= r["wind_direction"] < 360 for r in readings)

    def test_pressure_stays_meteorological(self):
        readings = collect(pressure_sensor("p1", SITE, "edge-0"), hours=48.0)
        values = [r["pressure"] for r in readings]
        assert all(950 < v < 1070 for v in values)

    def test_sea_level_tidal_period(self):
        readings = collect(
            sea_level_sensor("s1", SITE, "edge-0", tidal_amplitude_m=0.8),
            hours=26.0,
        )
        values = np.array([r["water_level"] for r in readings])
        # Two highs and two lows in ~25h (semidiurnal): range ~2x amplitude.
        assert values.max() - values.min() == pytest.approx(1.6, abs=0.4)


class TestLifecycle:
    def test_detach_stops_emission(self):
        sensor = temperature_sensor("t1", SITE, "edge-0")
        clock, net, seen = attached(sensor)
        clock.run_until(600.0)
        count = len(seen)
        sensor.detach()
        clock.run_until(3600.0)
        assert len(seen) == count
        assert "t1" not in net.registry

    def test_double_attach_raises(self):
        sensor = temperature_sensor("t1", SITE, "edge-0")
        clock, net, _ = attached(sensor)
        with pytest.raises(PubSubError):
            sensor.attach(net, clock)

    def test_probe_does_not_perturb_stream(self):
        sensor = temperature_sensor("t1", SITE, "edge-0")
        clock, _, _ = attached(sensor)
        clock.run_until(300.0)
        before = sensor.rng.bit_generator.state["state"]["state"]
        sensor.probe(1000.0)
        after = sensor.rng.bit_generator.state["state"]["state"]
        assert before == after
