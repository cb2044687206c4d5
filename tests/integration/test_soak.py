"""Soak test: two virtual days of continuous operation.

Long-running behaviours that short tests cannot see: caches must stay
bounded, the trigger must cycle with the diurnal temperature (re-arming
each night), monitor series must keep growing linearly, and the clock's
event heap must not accumulate garbage.
"""

import pytest

from repro.scenario import build_stack, osaka_scenario_flow

DAYS = 2


class TestSoak:
    @pytest.fixture(scope="class")
    def run(self):
        stack = build_stack(hot=True, seed=5)
        flow = osaka_scenario_flow(stack)
        deployment = stack.executor.deploy(flow)
        stack.run_until(DAYS * 86400.0)
        return stack, deployment

    def test_trigger_cycles_daily(self, run):
        stack, _ = run
        activations = stack.executor.monitor.records("activate")
        # One activation per warm day (edge-triggered, re-armed each night).
        assert len(activations) == DAYS
        gaps = [b.time - a.time
                for a, b in zip(activations, activations[1:])]
        assert all(20 * 3600.0 < gap < 28 * 3600.0 for gap in gaps)

    def test_caches_stay_bounded(self, run):
        stack, deployment = run
        trigger = deployment.process("hot-hour-trigger").operator
        # The sliding window holds at most window/period readings per
        # sensor (4 sensors x 60 readings/hour).
        assert len(trigger.cache) <= 4 * 60 + 4
        assert trigger.cache.evicted == 0  # never hit the memory bound

    def test_monitor_series_linear(self, run):
        stack, _ = run
        series = next(iter(stack.executor.monitor.node_utilization.values()))
        expected_samples = DAYS * 86400.0 / stack.executor.monitor.sample_interval
        assert abs(len(series) - expected_samples) <= 2

    def test_clock_heap_drained(self, run):
        stack, _ = run
        # Only the standing periodic events remain (sensors, timers,
        # monitor, rebalancer) — not an unbounded backlog.
        assert stack.clock.pending < 100

    def test_warehouse_grows_on_both_days(self, run):
        stack, _ = run
        day1 = stack.warehouse.query().time_range(0.0, 86400.0).count()
        day2 = stack.warehouse.query().time_range(86400.0, 2 * 86400.0).count()
        assert day1 > 0 and day2 > 0

    def test_no_errors_quarantined(self, run):
        stack, deployment = run
        for process in deployment.processes.values():
            assert process.operator.stats.errors == 0
