"""Integration test: several dataflows under control at once.

Figure 3 shows "the flows of data that are monitored for this and other
dataflows that are under control" — one executor hosts many deployments
sharing the same network, sensors, and monitor, with independent
lifecycles.
"""

import pytest

from repro.dataflow.graph import Dataflow
from repro.dataflow.ops import AggregationSpec, FilterSpec
from repro.scenario import build_stack
from tests.builders import pipeline


def flow_a() -> Dataflow:
    return pipeline("flow-a", ("hot", FilterSpec("temperature > 24")))


def flow_b() -> Dataflow:
    return pipeline("flow-b", ("hourly", AggregationSpec(
        interval=3600.0, attributes=("rain_rate",), function="MAX",
        group_by="station")), sensor_type="rain")


class TestMultiDataflow:
    @pytest.fixture
    def stack(self):
        return build_stack(hot=True)

    def test_independent_results(self, stack):
        a = stack.executor.deploy(flow_a())
        b = stack.executor.deploy(flow_b())
        stack.run_until(15 * 3600.0)
        temps = a.collected("out")
        rains = b.collected("out")
        assert temps and rains
        assert all("temperature" in t for t in temps)
        assert all("max_rain_rate" in t for t in rains)
        # Grouped aggregation: one output per station per window.
        stations = {t["station"] for t in rains}
        assert len(stations) == 3

    def test_monitor_separates_deployments(self, stack):
        stack.executor.deploy(flow_a())
        stack.executor.deploy(flow_b())
        stack.run_until(2 * 3600.0)
        rates = stack.executor.monitor.operation_rates
        assert "flow-a/flow-a:hot" in rates
        assert "flow-b/flow-b:hourly" in rates
        dashboard = stack.executor.monitor.render_dashboard()
        assert "flow-a" in dashboard and "flow-b" in dashboard

    def test_teardown_of_one_leaves_the_other(self, stack):
        a = stack.executor.deploy(flow_a())
        b = stack.executor.deploy(flow_b())
        stack.run_until(13 * 3600.0)
        a.teardown()
        count_a = len(a.collected("out"))
        count_b = len(b.collected("out"))
        stack.run_until(16 * 3600.0)
        assert len(a.collected("out")) == count_a
        assert len(b.collected("out")) > count_b

    def test_shared_sensor_fan_out(self, stack):
        # Two deployments subscribing to the same sensors both receive
        # every reading (pub-sub fan-out, not stealing).
        a = stack.executor.deploy(flow_a())
        duplicate = flow_a()
        duplicate.name = "flow-a2"
        b = stack.executor.deploy(duplicate)
        stack.run_until(14 * 3600.0)
        assert len(a.collected("out")) == len(b.collected("out"))

    def test_pause_isolated(self, stack):
        a = stack.executor.deploy(flow_a())
        b = stack.executor.deploy(flow_b())
        stack.run_until(12 * 3600.0)
        a.pause()
        count_a = len(a.collected("out"))
        count_b = len(b.collected("out"))
        stack.run_until(15 * 3600.0)
        assert len(a.collected("out")) == count_a
        assert len(b.collected("out")) > count_b
