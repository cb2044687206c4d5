"""Integration tests: end-to-end tracing, lineage, and metrics.

The Osaka scenario at sampling 1.0: the slowest sink-reaching trace
renders a complete span tree with per-hop virtual durations, lineage
resolves sink tuples to exact source tuple ids, and the metrics registry
carries the monitor's series.
"""

import pytest

from repro.dataflow.ops import AggregationSpec
from repro.obs.render import (
    render_trace, sink_trace_ids, slowest_sink_traces, trace_for_tuple,
)
from repro.scenario import build_stack, osaka_scenario_flow
from tests.builders import pipeline

HOURS = 15 * 3600.0


@pytest.fixture(scope="module")
def observed_stack():
    """One observed Osaka scenario run shared by the read-only tests."""
    stack = build_stack(hot=True, observability=True)
    flow = osaka_scenario_flow(stack)
    deployment = stack.executor.deploy(flow)
    stack.run_until(HOURS)
    return stack, deployment


@pytest.fixture
def obs(observed_stack):
    """That run's observability: tracer, lineage, metrics."""
    return observed_stack[0].obs


@pytest.fixture
def tracer(obs):
    return obs.tracer


class TestEndToEndTracing:
    def test_slowest_sink_trace_is_complete(self, tracer):
        slowest = slowest_sink_traces(tracer, 1)
        assert len(slowest) == 1
        spans = tracer.trace(slowest[0])
        names = [s.name for s in spans]
        # Root at the broker, network hops, terminal sink.
        assert names[0] == "publish"
        assert "transmit" in names
        assert names[-1] == "sink"
        # Spans chain: every non-root span hangs off a recorded span.
        ids = {s.span_id for s in spans}
        assert all(s.parent_id in ids for s in spans if s.parent_id is not None)
        # Hops have real virtual-clock extent.
        assert tracer.duration(slowest[0]) > 0.0

    def test_rendered_tree_shows_every_hop_with_durations(self, obs, tracer):
        # The rain -> torrential filter -> warehouse path of the scenario.
        for tid in tracer.trace_ids():
            names = {s.name for s in tracer.trace(tid)}
            if "evaluate" in names and "sink" in names:
                break
        else:
            pytest.fail("no trace crossed the torrential filter to a sink")
        out = render_trace(tracer, tid, lineage=obs.lineage)
        assert "publish osaka-rain" in out
        assert "transmit" in out and "->" in out
        assert "evaluate filter" in out
        assert "sink warehouse:event-warehouse" in out
        assert "lineage: osaka-rain" in out
        # Durations are printed per hop.
        assert "ms)" in out or "s)" in out

    def test_lineage_of_passthrough_sink_tuple_is_itself(self, obs, tracer):
        tid = slowest_sink_traces(tracer, 1)[0]
        sink_span = next(s for s in tracer.trace(tid) if s.name == "sink")
        key = sink_span.attrs["tuple"]
        # The scenario's sink paths are all non-blocking, so the sink
        # tuple's identity is the source reading itself.
        assert obs.lineage.explain(key) == [key]

    def test_trace_for_tuple_finds_the_same_trace(self, tracer):
        tid = slowest_sink_traces(tracer, 1)[0]
        key = next(
            s.attrs["tuple"] for s in tracer.trace(tid) if s.name == "sink")
        assert trace_for_tuple(tracer, key) == tid

    def test_every_delivered_path_is_traced(self, tracer):
        # With sampling=1.0 every publication opens a trace.
        assert tracer.traces_started > 0
        assert len(sink_trace_ids(tracer)) > 100

    def test_control_events_record_placements(self):
        # Without observability the log still says where each unit runs.
        stack = build_stack()
        units = stack.executor.deploy(osaka_scenario_flow(stack)).plan.units
        placed = [(r.facts["service"], r.facts["node"], r.facts["score"])
                  for r in stack.executor.monitor.records("placement")]
        assert placed == [(key, unit.placement.node_id, unit.placement.score)
                          for key, unit in units.items()]


class TestMetricsIntegration:
    def test_monitor_series_flow_into_the_registry(self, observed_stack, obs):
        snap = obs.metrics.snapshot()
        rates = {
            s["labels"]["process"]: s["value"]
            for s in snap["operation_tuples_per_second"]["series"]
        }
        assert any(rate > 0 for rate in rates.values())
        assert snap["monitor_heartbeats_total"]["series"]
        # The exposition agrees with the dashboard: both read the network.
        network = observed_stack[0].executor.monitor.report()["network"]
        del network["mean_delay"]
        assert network["messages_delivered"] > 0
        assert {name: obs.metrics.get(f"network_{name}").value
                for name in network} == network

    def test_broker_publish_counters_by_source(self, obs):
        snap = obs.metrics.snapshot()
        sources = {
            s["labels"]["source"]: s["value"]
            for s in snap["broker_tuples_published_total"]["series"]
        }
        assert any(src.startswith("osaka-temp") for src in sources)
        assert all(count > 0 for count in sources.values())

    def test_exposition_renders_without_error(self, obs):
        text = obs.metrics.expose()
        assert "# TYPE process_tuples_total counter" in text
        assert "operation_tuples_per_second" in text


class TestSamplingModes:
    def test_sampling_zero_traces_nothing_but_counts_everything(self):
        stack = build_stack(hot=True, observability=0.0)
        flow = osaka_scenario_flow(stack)
        stack.executor.deploy(flow)
        stack.run_until(4 * 3600.0)
        assert stack.obs.tracer.traces_started == 0
        assert stack.obs.tracer.trace_ids() == []
        snap = stack.obs.metrics.snapshot()
        totals = [
            s["value"]
            for s in snap["broker_tuples_published_total"]["series"]
        ]
        assert sum(totals) > 0

    def test_no_observability_leaves_stack_untouched(self):
        stack = build_stack(hot=True)
        assert stack.obs is None
        assert stack.netsim.tracer is None
        flow = osaka_scenario_flow(stack)
        stack.executor.deploy(flow)
        stack.run_until(2 * 3600.0)  # runs fine with zero instrumentation

    def test_partial_sampling_records_a_fraction(self):
        stack = build_stack(hot=True, observability=0.25)
        flow = osaka_scenario_flow(stack)
        stack.executor.deploy(flow)
        stack.run_until(4 * 3600.0)
        tracer = stack.obs.tracer
        published = sum(
            s["value"]
            for s in stack.obs.metrics.snapshot()[
                "broker_tuples_published_total"]["series"]
        )
        # Error diffusion: exactly every 4th publication (flush roots are
        # also sampled, so allow the trigger's contribution).
        assert tracer.traces_started == pytest.approx(published / 4, abs=2)


class TestBlockingLineage:
    def test_aggregate_flush_starts_fresh_trace_and_lineage_stitches(self):
        """An aggregation breaks the tuple's identity; the flush trace plus
        the lineage store together still reach the source readings."""
        stack = build_stack(hot=True, observability=True)
        deployment = stack.executor.deploy(pipeline(
            "agg-obs", ("hourly", AggregationSpec(
                interval=3600.0, attributes=("temperature",), function="AVG")),
            source="temp"))
        stack.run_until(3 * 3600.0)

        collected = deployment.collected("out")
        assert collected
        lineage = stack.obs.lineage
        key = f"{collected[0].source}#{collected[0].seq}"
        sources = lineage.explain(key)
        assert sources and all("osaka-temp" in s for s in sources)
        # The flush opened a fresh trace that carried the aggregate to
        # the sink.
        flush_traces = [
            tid for tid in stack.obs.tracer.trace_ids()
            if stack.obs.tracer.trace(tid)
            and stack.obs.tracer.trace(tid)[0].name == "flush"
        ]
        assert flush_traces
        names = {
            s.name
            for tid in flush_traces
            for s in stack.obs.tracer.trace(tid)
        }
        assert "sink" in names
