"""Unit tests: the sensor-side adaptive micro-batch flusher, driven by
the policies its routes carry (``BrokerNetwork.batching_for``)."""

import pytest

from repro.errors import PubSubError
from repro.pubsub.subscription import BatchingPolicy
from repro.sensors.base import SimulatedSensor
from tests.builders import attached
from tests.unit.pubsub.test_registry import make_metadata


def run(batch=None):
    """A 1 Hz sensor whose one route declares ``batch``."""
    sensor = SimulatedSensor(make_metadata("t1", frequency=1.0),
                             generator=lambda now, rng: {"v": now})
    return (sensor, *attached(sensor, batch=batch))


class TestPolicy:
    def test_defaults_to_unbatched(self):
        assert BatchingPolicy().max_batch == 1

    def test_rejects_zero_batch(self):
        with pytest.raises(PubSubError):
            BatchingPolicy(max_batch=0)

    def test_rejects_non_positive_delay_when_batching(self):
        with pytest.raises(PubSubError):
            BatchingPolicy(max_batch=4, max_delay=0.0)
        BatchingPolicy(max_batch=1, max_delay=0.0)  # fine when unbatched


class TestUnbatchedPassthrough:
    def test_each_reading_published_immediately(self):
        sensor, clock, network, seen = run(BatchingPolicy(1, 60.0))
        assert network.batching_for("t1") is None  # batch 1 is unbatched
        clock.run_until(3.5)
        assert len(seen) == 3
        assert network.data_messages_sent == 3


class TestFlushOnFill:
    def test_flushes_when_batch_fills(self):
        sensor, clock, network, seen = run(BatchingPolicy(3, 100.0))
        clock.run_until(2.5)
        assert seen == []  # two readings buffered, batch not full
        clock.run_until(3.5)
        assert len(seen) == 3
        # One network-level fan-out for three tuples.
        assert network.data_messages_sent == 1
        assert network.data_tuples_sent == 3

    def test_order_preserved_across_flushes(self):
        _, clock, _, seen = run(BatchingPolicy(2, 100.0))
        clock.run_until(6.5)
        assert [t.seq for t in seen] == [0, 1, 2, 3, 4, 5]


class TestFlushOnDelay:
    def test_partial_batch_flushes_after_max_delay(self):
        _, clock, network, seen = run(BatchingPolicy(100, 2.5))
        # Readings at t=1, 2, 3; the t=1 reading's delay budget expires at
        # t=3.5, flushing everything buffered by then.
        clock.run_until(3.4)
        assert seen == []
        clock.run_until(3.6)
        assert [t.seq for t in seen] == [0, 1, 2]
        assert network.data_messages_sent == 1

    def test_delay_timer_rearms_per_batch(self):
        _, clock, network, seen = run(BatchingPolicy(100, 1.5))
        clock.run_until(10.0)
        # Each flush restarts the window on the next buffered reading.
        assert network.data_messages_sent >= 2
        assert [t.seq for t in seen] == sorted(t.seq for t in seen)


class TestLifecycle:
    def test_detach_flushes_buffered_readings(self):
        sensor, clock, _, seen = run(BatchingPolicy(100, 100.0))
        clock.run_until(2.5)
        assert seen == []
        sensor.detach()
        assert [t.seq for t in seen] == [0, 1]
        clock.run()  # the cancelled flush timer must not fire
        assert len(seen) == 2

    def test_flush_on_empty_buffer_is_a_no_op(self):
        sensor, _, network, _ = run(BatchingPolicy(4))
        assert sensor.flush() == 0
        assert network.data_messages_sent == 0
