"""Unit tests for the deterministic alerting engine."""

import pytest

from repro.cli import parse_slo_expr
from repro.dsn.generate import dataflow_to_dsn
from repro.errors import StreamLoaderError
from repro.network.netsim import NetworkSimulator
from repro.network.simclock import SimClock
from repro.network.topology import Topology
from repro.obs.alerts import AlertEngine, AlertRule, _HistogramWindow
from repro.obs.latency import LatencyPlane
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.runtime.monitor import Monitor
from repro.scenario import build_stack, sharded_aggregation_flow
from tests.builders import fused_pipeline


@pytest.fixture
def metrics() -> MetricsRegistry:
    return MetricsRegistry()


@pytest.fixture
def plane(metrics) -> LatencyPlane:
    return LatencyPlane(metrics)


@pytest.fixture
def monitor() -> Monitor:
    return Monitor(NetworkSimulator(topology=Topology.line(1)))


def make_engine(metrics, plane=None, monitor=None):
    """A started engine logging to ``monitor`` (default: a fresh one), on
    the monitor's clock; returns the engine and that clock."""
    monitor = monitor or Monitor(NetworkSimulator(topology=Topology.line(1)))
    engine = AlertEngine(metrics, plane=plane, log=monitor.log)
    engine.start(monitor.netsim.clock)
    return engine, monitor.netsim.clock


def transitions(monitor):
    return [(r.event, r.time) for r in monitor.records(
        "alert-fire", "alert-resolve")]


def depth_rule(metrics, monitor=None, **rule_options):
    """A started engine with rule ``r``: gauge ``depth`` < 1.  Returns
    the gauge, the engine and its clock; ``monitor`` goes to the engine,
    everything else to the rule."""
    gauge = metrics.gauge("depth")
    engine, clock = make_engine(metrics, monitor=monitor)
    engine.add_rule(AlertRule(name="r", metric="depth", op="<", threshold=1.0,
                              **rule_options))
    return gauge, engine, clock


class TestAlertRule:
    def test_rejects_unknown_comparator(self):
        with pytest.raises(StreamLoaderError):
            AlertRule(name="r", metric="saturation", op="!=", threshold=1.0)

    def test_rejects_negative_window_and_sustain(self):
        with pytest.raises(StreamLoaderError):
            AlertRule(name="r", metric="saturation", op="<", threshold=1.0,
                      window=-1.0)
        with pytest.raises(StreamLoaderError):
            AlertRule(name="r", metric="saturation", op="<", threshold=1.0,
                      sustain=-1.0)

    def test_describe_mentions_window_and_sustain(self):
        rule = AlertRule(name="r", metric="p99_latency", op="<",
                         threshold=5.0, window=60.0, sustain=120.0)
        assert rule.describe() == "p99_latency < 5 over 60s sustained 120s"


class TestEngineLifecycle:
    def test_rejects_nonpositive_cadence(self, metrics):
        with pytest.raises(StreamLoaderError):
            AlertEngine(metrics, cadence=0.0)

    def test_tick_before_start_is_an_error(self, metrics):
        engine = AlertEngine(metrics)
        with pytest.raises(StreamLoaderError):
            engine.tick()

    def test_ticks_offset_half_a_cadence(self, metrics):
        engine = AlertEngine(metrics, cadence=60.0)
        clock = SimClock()
        times = []
        original = engine.tick
        engine.tick = lambda: (times.append(clock.now), original())
        engine.start(clock)
        clock.run_until(100.0)
        assert times == [30.0, 90.0]

    def test_latency_rule_without_plane_is_rejected(self, metrics):
        engine = AlertEngine(metrics)
        with pytest.raises(StreamLoaderError):
            engine.add_rule(AlertRule(name="r", metric="p99_latency",
                                      op="<", threshold=5.0, window=60.0))


class TestThresholdRules:
    def test_gauge_rule_fires_and_resolves(self, metrics, monitor):
        gauge = metrics.gauge("queue_depth", process="agg")
        engine, clock = make_engine(metrics, monitor=monitor)
        engine.add_rule(AlertRule(name="deep", metric="queue_depth",
                                  op="<", threshold=10.0))
        gauge.set(3.0)
        clock.run_until(40.0)  # first tick at t=30
        assert engine.firing() == []
        gauge.set(25.0)
        clock.run_until(100.0)
        assert engine.firing() == ["deep"]
        gauge.set(2.0)
        clock.run_until(160.0)
        assert engine.firing() == []
        assert transitions(monitor) == [
            ("alert-fire", 90.0), ("alert-resolve", 150.0),
        ]

    def test_vacuous_health_when_metric_absent(self, metrics):
        engine, clock = make_engine(metrics)
        engine.add_rule(AlertRule(name="r", metric="no_such_gauge",
                                  op="<", threshold=1.0))
        clock.run_until(100.0)
        assert engine.firing() == []
        assert engine.last_values() == {"r": None}

    def test_gauge_family_evaluated_at_its_max(self, metrics):
        metrics.gauge("depth", process="a").set(1.0)
        metrics.gauge("depth", process="b").set(50.0)
        engine, clock = make_engine(metrics)
        engine.add_rule(AlertRule(name="r", metric="depth",
                                  op="<", threshold=10.0))
        clock.run_until(40.0)
        assert engine.firing() == ["r"]
        assert engine.last_values()["r"] == 50.0

    def test_firing_gauge_tracks_state(self, metrics):
        gauge, engine, clock = depth_rule(metrics)
        firing_gauge = metrics.get("alerts_firing", rule="r")
        assert firing_gauge.value == 0.0
        gauge.set(5.0)
        clock.run_until(40.0)
        assert firing_gauge.value == 1.0
        counter = metrics.get("alert_transitions_total", rule="r",
                              event="fire")
        assert counter.value == 1.0


class TestSustainedRules:
    def test_transient_breach_is_ignored(self, metrics, monitor):
        gauge, engine, clock = depth_rule(metrics, monitor, sustain=120.0)
        gauge.set(5.0)
        clock.run_until(100.0)  # breached for one tick (70s < sustain)
        gauge.set(0.0)
        clock.run_until(220.0)
        assert transitions(monitor) == []

    def test_persistent_breach_fires_after_sustain(self, metrics, monitor):
        gauge, engine, clock = depth_rule(metrics, monitor, sustain=120.0)
        gauge.set(5.0)
        clock.run_until(400.0)
        # breach_since=30; fires at the first tick with 120s elapsed: 150.
        assert transitions(monitor) == [("alert-fire", 150.0)]


class TestWindowedQuantiles:
    def test_window_quantiles_only_recent_observations(self):
        hist = Histogram(boundaries=(1.0, 10.0, 100.0))
        window = _HistogramWindow(hist, window=60.0)
        for _ in range(10):
            hist.observe(50.0)  # a burst of slow tuples
        assert window.quantile(0.0, 0.99) == 100.0
        for _ in range(100):
            hist.observe(0.5)  # recovery
        assert window.quantile(30.0, 0.99) == 100.0  # burst still in window
        for _ in range(100):
            hist.observe(0.5)  # steady fast traffic after the burst
        assert window.quantile(90.0, 0.99) == 1.0  # burst slid out

    def test_empty_window_is_none(self):
        hist = Histogram(boundaries=(1.0,))
        window = _HistogramWindow(hist, window=60.0)
        assert window.quantile(0.0, 0.99) is None
        hist.observe(0.5)
        assert window.quantile(60.0, 0.99) == 1.0
        assert window.quantile(120.0, 0.99) is None  # drained again

    def test_burn_rate_rule_resolves_after_burst_ages_out(self, metrics, plane):
        engine, clock = make_engine(metrics, plane=plane)
        engine.add_rule(AlertRule(name="slo", metric="p99_latency", op="<",
                                  threshold=5.0, window=120.0))
        sink = plane.register_process("out", blocking=False, sink=True)
        for _ in range(20):
            sink.note(10.0, 0.0)  # 10s latencies: way over budget
        clock.run_until(40.0)
        assert engine.firing() == ["slo"]
        clock.run_until(400.0)  # no new slow tuples; window slides past
        assert engine.firing() == []

    def test_unwindowed_quantile_reads_cumulative_histogram(self, metrics, plane):
        engine, clock = make_engine(metrics, plane=plane)
        engine.add_rule(AlertRule(name="slo", metric="p99_latency", op="<",
                                  threshold=5.0))
        clock.run_until(40.0)
        assert engine.firing() == []  # empty histogram: vacuously healthy
        sink = plane.register_process("out", blocking=False, sink=True)
        sink.note(10.0, 0.0)
        clock.run_until(100.0)
        assert engine.firing() == ["slo"]


class TestPlaneMetrics:
    def test_watermark_lag_rule(self, metrics, plane):
        engine, clock = make_engine(metrics, plane=plane)
        engine.add_rule(AlertRule(name="lag", metric="watermark_lag",
                                  op="<", threshold=100.0))
        probe = plane.register_process("f", blocking=False, sink=False)
        plane.note_publish("s", 10.0, 500.0)
        probe.note(10.0, 9.0)
        clock.run_until(40.0)
        assert engine.firing() == ["lag"]
        assert engine.last_values()["lag"] == pytest.approx(491.0)

    def test_saturation_rule(self, metrics, plane):
        engine, clock = make_engine(metrics, plane=plane)
        engine.add_rule(AlertRule(name="sat", metric="saturation",
                                  op="<=", threshold=0.5))
        probe = plane.register_process("agg", blocking=True, sink=False)
        probe.note(1.0, 0.5)
        probe.commit_flush(10.0, [])
        probe.note(11.0, 10.5)  # buffered == last epoch: saturation 1.0
        clock.run_until(40.0)
        assert engine.firing() == ["sat"]


class TestHistoryAndViews:
    def test_tracer_records_transitions_as_events(self, metrics, monitor):
        gauge, engine, clock = depth_rule(metrics, monitor)
        gauge.set(5.0)
        clock.run_until(40.0)
        [record] = monitor.records("alert-fire")
        assert str(record) == "[      30.0] r: alert-fire depth < 1 (value=5)"
        assert record.facts == {"rule": "r", "metric": "depth", "value": 5.0,
                                "threshold": 1.0}

    def test_snapshot_taken_at_tick_not_read_time(self, metrics, plane):
        engine, clock = make_engine(metrics, plane=plane)
        probe = plane.register_process("f", blocking=False, sink=False)
        plane.note_publish("s", 10.0, 10.0)
        probe.note(10.0, 10.0)
        clock.run_until(40.0)
        snapshot = engine.snapshot
        probe.note(50.0, 50.0)  # later progress must not leak in
        assert engine.snapshot is snapshot
        assert snapshot["time"] == 30.0
        assert snapshot["services"]["f"]["watermark"] == 10.0

    def test_health_json_shape(self, metrics, monitor):
        gauge, engine, clock = depth_rule(metrics, monitor)
        gauge.set(5.0)
        clock.run_until(40.0)
        payload = engine.health_json(monitor.logs)
        assert payload["rules"]["r"]["threshold"] == 1.0
        assert payload["history"] == [[30.0, "fire", "r", 5.0]]
        assert payload["snapshot"]["firing"] == ["r"]


class TestTeardown:
    def test_torn_down_flow_leaves_no_probe_or_rule(self):
        # A stopped flow's frozen watermark once held every lag rule in
        # breach: both rules fired at t=2730 with lag 8968 s.
        stack = build_stack(latency=True)
        kept, dropped = (stack.executor.deploy(dataflow_to_dsn(
            flow, slos=[parse_slo_expr("watermark_lag < 900", flow.name)]))
            for flow in (sharded_aggregation_flow(stack),
                         fused_pipeline()))
        stack.run_until(1800.0)
        dropped.teardown()
        stack.run_until(3 * 3600.0)
        engine = stack.executor.alerts
        assert engine.last_values() == {"slo:station-averages:watermark_lag": 268.0}
        assert engine.firing() == []
        assert {probe.split(":")[0] for probe in stack.obs.latency.probes} == {
            kept.name}
