"""Unit tests for the monitor."""

import pathlib

import pytest

from repro.network.netsim import NetworkSimulator
from repro.network.topology import Topology
from repro.obs import AlertEngine, AlertRule, Observability
from repro.runtime.monitor import Monitor, NodeHealth
from repro.runtime.process import OperatorProcess
from repro.streams.filter import FilterOperator

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"


@pytest.fixture
def sim() -> NetworkSimulator:
    return NetworkSimulator(topology=Topology.line(2))


@pytest.fixture
def monitor(sim) -> Monitor:
    return Monitor(sim, sample_interval=60.0)


def make_process(sim, name="f", node="node-0"):
    return OperatorProcess(name, FilterOperator("temperature > -100"), node, sim)


def watched(sim, monitor):
    """A process on node-0 that ``monitor`` watches as flow ``flow``."""
    process = make_process(sim)
    monitor.watch("flow", [process])
    return process


class TestSampling:
    def test_operation_rates_collected(self, sim, monitor, make_tuple):
        process = watched(sim, monitor)
        monitor.start()
        for i in range(120):
            sim.clock.schedule(float(i), lambda i=i: process.receive(make_tuple(i)))
        sim.clock.run_until(180.0)
        series = monitor.operation_rates["flow/f"]
        assert len(series) == 3
        assert series.points[1][1] == pytest.approx(1.0, rel=0.1)

    def test_node_utilization_sampled(self, sim, monitor):
        monitor.start()
        sim.topology.node("node-0").register_process("bg", demand=500.0)
        sim.clock.run_until(60.0)
        assert monitor.node_utilization["node-0"].last == pytest.approx(0.5)

    def test_stop_halts_sampling(self, sim, monitor):
        monitor.start()
        sim.clock.run_until(60.0)
        monitor.stop()
        sim.clock.run_until(600.0)
        assert len(monitor.node_utilization["node-0"]) == 1


def reassign(monitor, process_id="flow/f"):
    monitor.log(process_id, "reassigned", "node-0 -> node-1 (overload)",
                from_node="node-0", to_node="node-1", reason="overload")


class TestEvents:
    def test_assignment_log(self, sim, monitor):
        sim.clock.run_until(5.0)
        reassign(monitor, "flow:f")
        [record] = monitor.records("reassigned")
        assert record.facts["to_node"] == "node-1"
        assert str(record) == (
            "[       5.0] flow:f: reassigned node-0 -> node-1 (overload)")
        assert monitor.report()["assignment_changes"] == 1

    def test_control_log(self, sim, monitor):
        monitor.log("flow", "deactivate", "rain-1 (cold)", command="cmd")
        [record] = monitor.records("activate", "deactivate")
        assert record.facts == {"command": "cmd"}
        assert monitor.report()["controls"] == 1

    def test_each_event_counts_in_its_metric_family(self, sim):
        obs = Observability(sampling=0.0)
        monitor = Monitor(sim, obs=obs)
        for event in ("reassigned", "key-split", "key-aborted", "activate",
                      "dead-letter", "deployed"):
            monitor.log("flow", event)
        assert [obs.metrics.get(f"monitor_{name}_total").value for name in (
            "assignment_changes", "key_migrations", "control_commands",
            "dead_letters")] == [1, 2, 1, 1]

    def test_suffering_nodes(self, sim, monitor):
        sim.topology.node("node-1").register_process("hog", demand=2000.0)
        assert monitor.suffering_nodes() == ["node-1"]
        assert monitor.suffering_nodes(threshold=5.0) == []


class TestReport:
    def test_report_structure(self, sim, monitor):
        watched(sim, monitor)
        monitor.start()
        sim.clock.run_until(60.0)
        report = monitor.report()
        assert "flow/f" in report["operation_rates"]
        assert "node-0" in report["node_utilization"]
        assert report["assignments"]["flow/f"] == "node-0"
        assert "network" in report

    def test_dashboard_renders(self, sim, monitor, make_tuple):
        process = watched(sim, monitor)
        monitor.start()
        process.receive(make_tuple(0))
        sim.clock.run_until(60.0)
        reassign(monitor)
        text = monitor.render_dashboard()
        assert "flow/f" in text
        assert "node-0" in text
        assert "reassignments" in text

    def test_unwatch_removes_assignments(self, sim, monitor):
        watched(sim, monitor)
        monitor.unwatch("flow")
        assert monitor.current_assignments() == {}


@pytest.fixture
def detector(sim) -> Monitor:
    """A monitor with a fast failure detector for heartbeat tests."""
    return Monitor(sim, sample_interval=600.0, heartbeat_interval=10.0,
                   suspect_after=2.0, dead_after=4.0)


def watch_started(sim, detector, node="node-0"):
    process = make_process(sim, node=node)
    process.start()
    detector.watch("flow", [process])
    detector.start()
    return process


class TestFailureDetection:
    def test_thresholds_validated(self, sim):
        with pytest.raises(ValueError):
            Monitor(sim, suspect_after=4.0, dead_after=2.0)
        with pytest.raises(ValueError):
            Monitor(sim, suspect_after=0.0)

    def test_heartbeats_keep_node_alive(self, sim, detector):
        watch_started(sim, detector)
        sim.clock.run_until(200.0)
        assert detector.node_health["node-0"] is NodeHealth.ALIVE

    def test_silent_node_goes_suspect_then_dead(self, sim, detector):
        watch_started(sim, detector)
        deaths = []
        detector.on_node_dead.append(deaths.append)
        sim.clock.run_until(35.0)
        sim.kill_node("node-0")  # last heartbeat was at t=30
        sim.clock.run_until(55.0)  # 2+ intervals of silence
        assert detector.node_health["node-0"] is NodeHealth.SUSPECT
        assert deaths == []
        sim.clock.run_until(200.0)  # 4+ intervals of silence
        assert detector.node_health["node-0"] is NodeHealth.DEAD
        assert any(r.event == "node-suspect" for r in detector.logs)
        assert any(r.event == "node-dead" for r in detector.logs)

    def test_death_callback_fires_exactly_once(self, sim, detector):
        watch_started(sim, detector)
        deaths = []
        detector.on_node_dead.append(deaths.append)
        sim.clock.run_until(35.0)
        sim.kill_node("node-0")
        sim.clock.run_until(500.0)
        assert deaths == ["node-0"]

    def test_revived_node_recovers_to_alive(self, sim, detector):
        watch_started(sim, detector)
        sim.clock.run_until(35.0)
        sim.kill_node("node-0")
        sim.clock.run_until(200.0)
        assert detector.node_health["node-0"] is NodeHealth.DEAD
        sim.revive_node("node-0")
        sim.clock.run_until(250.0)  # next heartbeat clears the verdict
        assert detector.node_health["node-0"] is NodeHealth.ALIVE
        assert any(r.event == "node-alive" for r in detector.logs)

    def test_suspect_recovers_to_alive_without_death_verdict(self, sim, detector):
        """Regression: heartbeats resuming between ``suspect_after`` and
        ``dead_after`` must clear the SUSPECT verdict back to ALIVE and
        never invoke ``on_node_dead``."""
        watch_started(sim, detector)
        deaths = []
        detector.on_node_dead.append(deaths.append)
        sim.clock.run_until(35.0)
        sim.kill_node("node-0")  # last heartbeat at t=30
        sim.clock.run_until(55.0)  # > suspect_after (20s), < dead_after (40s)
        assert detector.node_health["node-0"] is NodeHealth.SUSPECT
        sim.revive_node("node-0")  # heartbeats resume at t=60
        sim.clock.run_until(100.0)
        assert detector.node_health["node-0"] is NodeHealth.ALIVE
        assert deaths == []
        assert not any(r.event == "node-dead" for r in detector.logs)
        events = [r.event for r in detector.logs
                  if r.event in ("node-suspect", "node-alive")]
        assert events == ["node-suspect", "node-alive"]

    def test_unwatched_nodes_not_judged(self, sim, detector):
        watch_started(sim, detector, node="node-0")
        sim.kill_node("node-1")  # hosts nothing we watch
        sim.clock.run_until(200.0)
        assert "node-1" not in detector.node_health

    def test_stop_halts_detection(self, sim, detector):
        watch_started(sim, detector)
        sim.clock.run_until(35.0)
        detector.stop()
        sim.kill_node("node-0")
        sim.clock.run_until(500.0)
        assert detector.node_health["node-0"] is NodeHealth.ALIVE

    def test_report_and_dashboard_surface_health(self, sim, detector):
        watch_started(sim, detector)
        sim.clock.run_until(35.0)
        sim.kill_node("node-0")
        sim.clock.run_until(200.0)
        report = detector.report()
        assert report["node_health"]["node-0"] == "dead"
        assert "DEAD" in detector.render_dashboard()


class TestDashboardGolden:
    """Byte-for-byte snapshot of the full monitoring screen, every section
    at once (operation and utilization rows, a SUSPECT node, a key move,
    watermarks, a firing alert).  Refresh with ``--update-goldens``."""

    def build_dashboard_text(self, sim) -> str:
        obs = Observability(sampling=0.0)
        plane = obs.ensure_latency()
        monitor = Monitor(sim, sample_interval=60.0, heartbeat_interval=10.0,
                          suspect_after=2.0, dead_after=20.0, obs=obs)
        process = make_process(sim)
        process.start()
        monitor.watch("flow", [process])
        monitor.start()

        engine = AlertEngine(obs.metrics, plane=plane, log=monitor.log)
        engine.start(sim.clock)
        monitor.alerts = engine
        engine.add_rule(AlertRule(name="slo:flow:watermark_lag",
                                  metric="watermark_lag", op="<",
                                  threshold=10.0, scope="flow"))

        probe = plane.register_process("flow:f", blocking=True, sink=False)
        plane.note_publish("sensor-1", 5.0, 5.0)
        probe.note(5.0, 5.0)  # buffered, never flushed: renders "cold"
        sink = plane.register_process("flow:out", blocking=False, sink=True)
        sink.note(6.0, 5.5)

        sim.clock.schedule_at(15.0, lambda: sim.kill_node("node-0"))
        # The sources advance while the sink's watermark stays at 5.5, so
        # the lag rule breaches before the t=90 tick.
        sim.clock.schedule_at(
            50.0, lambda: plane.note_publish("sensor-1", 50.0, 50.0))
        sim.clock.run_until(95.0)  # SUSPECT at 40, alert fires at 90
        monitor.log("flow:f", "key-migrate", key="station-1", from_shard=0,
                    to_shards=(1,), reason="hot key")
        return monitor.render_dashboard()

    def test_dashboard_matches_golden(self, sim, update_goldens):
        text = self.build_dashboard_text(sim) + "\n"
        path = GOLDEN_DIR / "dashboard.txt"
        if update_goldens:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(text)
        assert text == path.read_text()

    def test_dashboard_has_every_section(self, sim):
        text = self.build_dashboard_text(sim)
        assert "SUSPECT" in text
        assert "-- key migrations --" in text
        assert "station-1 shard 0 -> [1] (migrate)" in text
        assert "-- watermarks (lag behind sources) --" in text
        assert "cold" in text  # the buffered blocking probe never committed
        assert "slo:flow:watermark_lag" in text and "FIRING" in text

class TestReportPlaneSections:
    def test_report_watermarks_and_alerts_keys(self, sim):
        obs = Observability(sampling=0.0)
        plane = obs.ensure_latency()
        monitor = Monitor(sim, obs=obs)
        probe = plane.register_process("flow:f", blocking=False, sink=False)
        plane.note_publish("s", 10.0, 9.0)
        probe.note(10.0, 8.0)
        engine = AlertEngine(obs.metrics, plane=plane)
        engine.start(sim.clock)
        monitor.alerts = engine
        report = monitor.report()
        assert report["watermarks"]["flow:f"] == {"watermark": 8.0, "lag": 1.0}
        assert report["alerts"] == {"firing": [], "transitions": 0}

    def test_report_omits_sections_without_plane(self, sim, monitor):
        report = monitor.report()
        assert "watermarks" not in report
        assert "alerts" not in report

    def test_sample_refreshes_plane_gauges(self, sim):
        obs = Observability(sampling=0.0)
        plane = obs.ensure_latency()
        monitor = Monitor(sim, sample_interval=60.0, obs=obs)
        probe = plane.register_process("flow:agg", blocking=True, sink=False)
        probe.note(5.0, 4.0)
        monitor.start()
        sim.clock.run_until(60.0)
        assert obs.metrics.get("queue_depth", process="flow:agg").value == 1


class TestDeadLetterIntake:
    def test_record_keeps_audit_trail(self, sim, monitor):
        monitor.log("subscription-7", "dead-letter", subscription=7,
                    node="node-1", source="rain-1", reason="no route")
        [record] = monitor.records("dead-letter")
        assert record.source == "subscription-7"
        assert record.facts["source"] == "rain-1"
        assert monitor.report()["dead_letters"] == 1
