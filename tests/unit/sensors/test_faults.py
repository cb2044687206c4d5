"""Unit tests for fault-injection sensors."""

import pytest

from repro.sensors.faults import FlakySensor, MalformedPayloadSensor
from repro.sensors.physical import temperature_sensor
from repro.stt.spatial import Point
from tests.builders import attached

SITE = Point(34.69, 135.50)


def make_flaky(up=600.0, down=300.0):
    base = temperature_sensor("flaky-1", SITE, "edge-0", frequency=1.0 / 60.0)
    return FlakySensor(base.metadata, base.generator,
                       up_duration=up, down_duration=down)


class TestFlakySensor:
    def test_flaps_between_published_and_gone(self):
        sensor = make_flaky(up=600.0, down=300.0)
        clock, net, seen = attached(sensor)
        assert "flaky-1" in net.registry
        clock.run_until(700.0)  # past the first outage start
        assert "flaky-1" not in net.registry
        clock.run_until(1000.0)  # recovered at t=900
        assert "flaky-1" in net.registry
        assert sensor.outages == 1

    def test_emissions_pause_during_outage(self):
        sensor = make_flaky(up=600.0, down=600.0)
        clock, net, seen = attached(sensor)
        clock.run_until(1200.0)
        # Up for 0..600 (readings at 60..540; the outage starts exactly at
        # t=600 before that tick's emission), down 600..1200 (none).
        in_outage = [t for t in seen if 600.0 <= t.stamp.time <= 1200.0]
        assert len(in_outage) == 0
        assert len(seen) == 9

    def test_stop_flapping_freezes(self):
        sensor = make_flaky(up=600.0, down=300.0)
        clock, net, seen = attached(sensor)
        sensor.stop_flapping()
        clock.run_until(5000.0)
        assert sensor.outages == 0
        assert "flaky-1" in net.registry

    def test_invalid_durations_raise(self):
        base = temperature_sensor("x", SITE, "edge-0")
        with pytest.raises(ValueError):
            FlakySensor(base.metadata, base.generator, up_duration=0.0)


class TestMalformedPayloadSensor:
    def make(self, rate=0.5):
        base = temperature_sensor("bad-1", SITE, "edge-0", frequency=1.0 / 60.0)
        return MalformedPayloadSensor(base.metadata, base.generator,
                                      corruption_rate=rate, seed=3)

    def test_corrupts_roughly_at_rate(self):
        sensor = self.make(rate=0.5)
        clock, net, seen = attached(sensor)
        clock.run_until(6000.0)
        assert 20 <= sensor.corrupted <= 80  # ~50 of 100

    def test_corruptions_violate_schema(self):
        sensor = self.make(rate=1.0)
        clock, net, seen = attached(sensor)
        clock.run_until(600.0)
        schema = sensor.metadata.schema
        assert seen
        assert all(not schema.accepts_payload(dict(t.payload)) for t in seen)

    def test_zero_rate_never_corrupts(self):
        sensor = self.make(rate=0.0)
        clock, net, seen = attached(sensor)
        clock.run_until(6000.0)
        assert sensor.corrupted == 0

    def test_invalid_rate_raises(self):
        base = temperature_sensor("x", SITE, "edge-0")
        with pytest.raises(ValueError):
            MalformedPayloadSensor(base.metadata, base.generator,
                                   corruption_rate=1.5)
