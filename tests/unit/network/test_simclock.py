"""Unit tests for the discrete-event clock."""

import pytest

from repro.errors import SimulationError
from repro.network.simclock import SimClock


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


class TestScheduling:
    def test_callbacks_run_in_time_order(self, clock):
        order = []
        clock.schedule(5.0, lambda: order.append("b"))
        clock.schedule(1.0, lambda: order.append("a"))
        clock.schedule(9.0, lambda: order.append("c"))
        clock.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion(self, clock):
        order = []
        clock.schedule(1.0, lambda: order.append("first"))
        clock.schedule(1.0, lambda: order.append("second"))
        clock.run()
        assert order == ["first", "second"]

    def test_now_advances_during_callbacks(self, clock):
        seen = []
        clock.schedule(3.0, lambda: seen.append(clock.now))
        clock.run()
        assert seen == [3.0]

    def test_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            SimClock().schedule(-1.0, lambda: None)

    def test_schedule_in_past_raises(self):
        clock = SimClock(start=10.0)
        with pytest.raises(SimulationError):
            clock.schedule_at(5.0, lambda: None)

    def test_callbacks_can_schedule_more(self, clock):
        seen = []

        def chain():
            seen.append(clock.now)
            if clock.now < 3.0:
                clock.schedule(1.0, chain)

        clock.schedule(1.0, chain)
        clock.run()
        assert seen == [1.0, 2.0, 3.0]


class TestCallbackArguments:
    """An event carries its callback's positional arguments, so a
    scheduler of bound methods allocates no closure per event."""

    def test_schedule_passes_args(self, clock):
        calls = []
        event = clock.schedule(2.0, lambda a, b: calls.append((a, b)), "a", 7)
        assert event.args == ("a", 7)
        clock.run()
        assert calls == [("a", 7)]

    def test_schedule_at_passes_args(self, clock):
        calls = []
        clock.schedule_at(4.0, calls.append, "x")
        clock.run_until(5.0)
        assert calls == ["x"]

    def test_step_passes_args(self, clock):
        calls = []
        clock.schedule(1.0, calls.append, 1)
        assert clock.step()
        assert calls == [1]

    def test_args_do_not_take_part_in_the_tie_break(self):
        # Same instant, unorderable and descending arguments: insertion
        # order still decides, and nothing compares the arguments.
        clock = SimClock()
        order = []
        clock.schedule(1.0, order.append, {"z": 1})
        clock.schedule(1.0, order.append, {"a": 0})
        clock.schedule(1.0, order.append, 3)
        clock.run()
        assert order == [{"z": 1}, {"a": 0}, 3]

    def test_cancel_skips_an_event_with_args(self, clock):
        calls = []
        clock.schedule(1.0, calls.append, "dropped").cancel()
        clock.schedule(2.0, calls.append, "kept")
        assert clock.pending == 1
        clock.run()
        assert calls == ["kept"]


class TestCancellation:
    def test_cancelled_events_skipped(self, clock):
        fired = []
        event = clock.schedule(1.0, lambda: fired.append(1))
        event.cancel()
        clock.run()
        assert fired == []
        assert clock.pending == 0

    def test_pending_counts_only_live(self, clock):
        event = clock.schedule(1.0, lambda: None)
        clock.schedule(2.0, lambda: None)
        assert clock.pending == 2
        event.cancel()
        assert clock.pending == 1


class TestRunUntil:
    def test_stops_at_boundary(self, clock):
        fired = []
        clock.schedule(1.0, lambda: fired.append(1))
        clock.schedule(5.0, lambda: fired.append(5))
        clock.schedule(10.0, lambda: fired.append(10))
        executed = clock.run_until(5.0)
        assert executed == 2
        assert fired == [1, 5]
        assert clock.now == 5.0

    def test_advances_clock_even_without_events(self, clock):
        clock.run_until(100.0)
        assert clock.now == 100.0

    def test_backwards_raises(self):
        clock = SimClock(start=10.0)
        with pytest.raises(SimulationError):
            clock.run_until(5.0)

    def test_runaway_loop_detected(self, clock):

        def loop():
            clock.schedule(0.0, loop)

        clock.schedule(0.0, loop)
        with pytest.raises(SimulationError, match="exceeded"):
            clock.run_until(1.0, max_events=100)

    def test_no_reentrant_run(self, clock):
        errors = []

        def reenter():
            try:
                clock.run_until(100.0)
            except SimulationError as exc:
                errors.append(exc)

        clock.schedule(1.0, reenter)
        clock.run_until(10.0)
        assert len(errors) == 1


class TestPeriodic:
    def test_fires_at_interval(self, clock):
        ticks = []
        clock.schedule_periodic(10.0, lambda: ticks.append(clock.now))
        clock.run_until(35.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_start_delay(self, clock):
        ticks = []
        clock.schedule_periodic(10.0, lambda: ticks.append(clock.now), start_delay=1.0)
        clock.run_until(25.0)
        assert ticks == [1.0, 11.0, 21.0]

    def test_cancel_stops_future_firings(self, clock):
        ticks = []
        cancel = clock.schedule_periodic(10.0, lambda: ticks.append(clock.now))
        clock.run_until(25.0)
        cancel()
        clock.run_until(100.0)
        assert ticks == [10.0, 20.0]

    def test_cancel_from_within_callback(self, clock):
        ticks = []
        holder = {}

        def tick():
            ticks.append(clock.now)
            if len(ticks) == 2:
                holder["cancel"]()

        holder["cancel"] = clock.schedule_periodic(5.0, tick)
        clock.run_until(100.0)
        assert ticks == [5.0, 10.0]

    def test_zero_interval_raises(self):
        with pytest.raises(SimulationError):
            SimClock().schedule_periodic(0.0, lambda: None)
