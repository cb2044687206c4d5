"""Integration test: the full Section 3 scenario.

"Suppose, that there is interest in acquiring the data about torrential
rain, tweets and traffic only when the temperature identified in the last
hour is above 25 °C."
"""

import pytest

from repro.scenario import build_stack, osaka_scenario_flow


class TestHotRegime:
    @pytest.fixture(scope="class")
    def run(self):
        stack = build_stack(hot=True, seed=7)
        flow = osaka_scenario_flow(stack)
        deployment = stack.executor.deploy(flow)
        stack.run_until(18 * 3600.0)  # midnight -> evening
        return stack, deployment

    def test_trigger_fired_during_warm_hours(self, run):
        stack, _ = run
        controls = stack.executor.monitor.records("activate", "deactivate")
        assert controls
        first = controls[0]
        assert first.event == "activate"
        # Must fire once the hot day warms up, not at midnight.
        assert 6 * 3600.0 <= first.time <= 14 * 3600.0

    def test_gated_streams_quiet_before_activation(self, run):
        stack, deployment = run
        activation = stack.executor.monitor.records("activate")[0].time
        rain_facts = stack.warehouse.query().theme("weather/rain").facts()
        assert all(fact.event_time >= activation - 1.0 for fact in rain_facts)
        traffic = deployment.collected("traffic-collector")
        assert all(t.stamp.time >= activation - 1.0 for t in traffic)

    def test_torrential_rain_filter_applied(self, run):
        stack, _ = run
        assert all(fact.measures["rain_rate"] > 10.0
                   for fact in stack.warehouse.facts
                   if "rain_rate" in fact.measures)

    def test_tweets_reach_sticker(self, run):
        stack, _ = run
        assert stack.sticker.pushed > 0
        assert any("social/twitter" == theme for theme in stack.sticker.themes())

    def test_traffic_collected(self, run):
        stack, deployment = run
        traffic = deployment.collected("traffic-collector")
        assert traffic
        assert all("congestion" in t for t in traffic)

    def test_monitor_saw_the_whole_flow(self, run):
        stack, _ = run
        rates = stack.executor.monitor.report()["operation_rates"]
        assert any("hot-hour-trigger" in key for key in rates)
        assert any("torrential" in key for key in rates)


class TestCoolRegime:
    def test_nothing_acquired_when_cool(self):
        stack = build_stack(hot=False, seed=7)
        flow = osaka_scenario_flow(stack)
        deployment = stack.executor.deploy(flow)
        stack.run_until(18 * 3600.0)
        assert stack.executor.monitor.records("activate") == []
        assert len(stack.warehouse) == 0
        assert stack.sticker.pushed == 0
        assert deployment.collected("traffic-collector") == []
        # And the suppressed counters show traffic was saved, not hidden.
        assert stack.broker_network.data_messages_suppressed > 0


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        outcomes = []
        for _ in range(2):
            stack = build_stack(hot=True, seed=21)
            flow = osaka_scenario_flow(stack)
            stack.executor.deploy(flow)
            stack.run_until(14 * 3600.0)
            outcomes.append((
                len(stack.warehouse),
                stack.sticker.pushed,
                [str(r) for r in stack.executor.monitor.logs],
            ))
        assert outcomes[0] == outcomes[1]

    def test_different_seed_different_details(self):
        counts = []
        for seed in (1, 2):
            stack = build_stack(hot=True, seed=seed)
            flow = osaka_scenario_flow(stack)
            stack.executor.deploy(flow)
            stack.run_until(14 * 3600.0)
            counts.append((len(stack.warehouse), stack.sticker.pushed))
        assert counts[0] != counts[1]
