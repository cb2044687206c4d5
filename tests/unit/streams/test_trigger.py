"""Unit tests for Trigger On / Trigger Off — ⊕ON,t / ⊕OFF,t.

Which commands they issue is a table in the Table 1 spec
(``tests/oracle/test_table1_spec.py``); the ``case`` lines run its rows.
"""

import pytest

from repro.errors import DataflowError
from repro.streams.trigger import (
    TriggerOffOperator,
    TriggerOnOperator,
    window_statistics,
)
from tests.oracle.test_table1_spec import ON, case


class TestWindowStatistics:
    def test_numeric_stats(self, make_tuple):
        tuples = [make_tuple(i, temperature=20.0 + i) for i in range(5)]
        stats = window_statistics(tuples)
        assert stats["count"] == 5
        assert stats["avg_temperature"] == 22.0
        assert stats["min_temperature"] == 20.0
        assert stats["max_temperature"] == 24.0
        assert stats["sum_temperature"] == 110.0
        assert stats["last_temperature"] == 24.0

    def test_non_numeric_gets_last_only(self, make_tuple):
        stats = window_statistics([make_tuple(0, station="umeda")])
        assert stats["last_station"] == "umeda"
        assert "avg_station" not in stats

    def test_empty_window(self):
        assert window_statistics([]) == {"count": 0}


class TestTriggerOn:
    test_emits_no_data = case("trigger-on")
    test_fires_when_condition_holds = case("trigger-on")
    test_silent_when_condition_false = case("trigger-on")
    test_edge_triggered_not_repeated = case("trigger-on")
    test_rearms_after_condition_clears = case("trigger-on")
    test_sliding_window_prunes_old = case("trigger-on")
    test_empty_window_never_fires = case("trigger-on")
    test_condition_error_counted = case("trigger-on")

    def test_reason_mentions_condition(self, make_tuple):
        op = TriggerOnOperator(**ON)
        commands = []
        op.control = commands.append
        op.on_tuple(make_tuple(0, temperature=30.0, time=0.0))
        op.on_timer(300.0)
        assert "avg_temperature > 25" in commands[0].reason

    def test_no_targets_raises(self):
        with pytest.raises(DataflowError):
            TriggerOnOperator(interval=300.0, condition="count > 0", targets=[])

    def test_window_shorter_than_interval_raises(self):
        with pytest.raises(DataflowError):
            TriggerOnOperator(interval=300.0, window=60.0,
                              condition="count > 0", targets=["x"])

    def test_default_window_is_interval(self):
        op = TriggerOnOperator(interval=300.0, condition="count > 0", targets=["x"])
        assert op.window == 300.0


class TestTriggerOff:
    test_fires_deactivation = case("trigger-off")
    test_counts_controls_in_stats = case("trigger-off")

    def test_reset_rearms(self, make_tuple):
        op = TriggerOffOperator(interval=300.0, condition="count > 0", targets=["x"])
        commands = []
        op.control = commands.append
        op.on_tuple(make_tuple(0, time=0.0))
        op.on_timer(300.0)
        op.reset()
        op.on_tuple(make_tuple(1, time=400.0))
        op.on_timer(600.0)
        assert len(commands) == 2
