"""Unit tests: O(1) pending count and lazy-deletion compaction."""

import pytest

from repro.network.simclock import SimClock


@pytest.fixture
def clock():
    return SimClock()


class TestPendingCount:
    def test_pending_excludes_cancelled(self, clock):
        events = [clock.schedule(float(i + 1), lambda: None) for i in range(6)]
        assert clock.pending == 6
        events[0].cancel()
        events[2].cancel()
        assert clock.pending == 4

    def test_double_cancel_counts_once(self, clock):
        event = clock.schedule(1.0, lambda: None)
        clock.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        event.cancel()
        assert clock.pending == 1

    def test_pending_drains_to_zero(self, clock):
        events = [clock.schedule(float(i + 1), lambda: None) for i in range(5)]
        events[3].cancel()
        clock.run()
        assert clock.pending == 0

    def test_cancel_after_fire_is_a_no_op(self, clock):
        fired = clock.schedule(1.0, lambda: None)
        clock.schedule(2.0, lambda: None)
        clock.run_until(1.5)
        # The event already ran; cancelling it must not corrupt the count.
        fired.cancel()
        assert clock.pending == 1

    def test_cancel_own_event_from_its_callback(self, clock):
        """A callback cancelling the very event that is firing (the sensor
        flusher does this when ``flush`` runs off its own timer)."""
        holder = {}
        ran = []

        def callback():
            holder["event"].cancel()
            ran.append(clock.now)

        holder["event"] = clock.schedule(1.0, callback)
        clock.schedule(2.0, lambda: ran.append(clock.now))
        clock.run()
        assert ran == [1.0, 2.0]
        assert clock.pending == 0


class TestCompaction:
    def test_heap_compacts_when_mostly_cancelled(self, clock):
        keep = clock.schedule(100.0, lambda: None)
        doomed = [clock.schedule(float(i + 1), lambda: None)
                  for i in range(40)]
        before = len(clock._heap)
        for event in doomed:
            event.cancel()
        # Lazy deletion must not let the heap grow unboundedly: once
        # cancellations dominate, the live entries are rebuilt in place.
        assert len(clock._heap) < before
        assert clock.pending == 1
        keep.cancel()
        assert clock.pending == 0

    def test_compaction_preserves_order(self, clock):
        order = []
        doomed = [clock.schedule(float(i + 1), lambda: None)
                  for i in range(30)]
        clock.schedule(50.0, lambda: order.append("a"))
        clock.schedule(60.0, lambda: order.append("b"))
        clock.schedule(55.0, lambda: order.append("mid"))
        for event in doomed:
            event.cancel()
        clock.run()
        assert order == ["a", "mid", "b"]

    def test_compaction_during_run_keeps_future_events(self, clock):
        """run() iterates the same heap list the compactor rewrites."""
        order = []
        doomed = []

        def cancel_many():
            for event in doomed:
                event.cancel()
            order.append("cancelled")

        clock.schedule(1.0, cancel_many)
        doomed.extend(clock.schedule(float(i + 10), lambda: None)
                      for i in range(30))
        clock.schedule(100.0, lambda: order.append("late"))
        clock.run()
        assert order == ["cancelled", "late"]
        assert clock.pending == 0
