"""The monitor: execution logs and statistics for the web interface.

The paper enumerates exactly what the monitor surfaces: *"the number of
tuples that each operation handle per second, the node that suffers
because of high workload, which node is in charge of executing an
operation and when the assignment changes"* — plus, for Figure 3, the
flows of data of every dataflow under control.

The monitor samples each deployment's processes on the virtual clock and
keeps per-operation rate series, per-node utilization series, and the
execution log: one record stream, written through :meth:`Monitor.log`,
of every placement, reassignment, key move, trigger command, dead
letter, alert transition and node-health change.

It is also the runtime's **failure detector**: every watched process emits
a heartbeat on the sim clock, and a node whose processes all fall silent
is marked SUSPECT after ``suspect_after`` missed beats and DEAD after
``dead_after`` — at which point the ``on_node_dead`` callbacks fire and
the executor re-places the affected processes.  Dead-lettered tuples from
the broker's retry path surface here too, so "no silent loss" is an
auditable claim rather than a hope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable

from repro.network.netsim import NetworkSimulator
from repro.obs.alerts import TRANSITIONS
from repro.runtime.process import OperatorProcess
from repro.runtime.stats import TimeSeries


class NodeHealth(Enum):
    """Failure-detector verdict on a node hosting watched processes."""

    ALIVE = "alive"
    SUSPECT = "suspect"
    DEAD = "dead"


#: The elastic-sharding loop's events (DESIGN.md §13).
KEY_MOVES = ("key-migrate", "key-split", "key-aborted")
#: A trigger's commands, actuated by the control plane.
CONTROLS = ("activate", "deactivate")


@dataclass
class LogRecord:
    """One execution-log record: when, who, what, a readable detail, and
    the structured ``facts`` readers take their fields from."""

    time: float
    source: str
    event: str
    detail: str = ""
    facts: dict = field(default_factory=dict)

    def __str__(self) -> str:
        detail = f" {self.detail}" if self.detail else ""
        return f"[{self.time:10.1f}] {self.source}: {self.event}{detail}"


class Monitor:
    """Collects logs and metrics from a set of deployments."""

    def __init__(
        self,
        netsim: NetworkSimulator,
        sample_interval: float = 60.0,
        heartbeat_interval: float = 30.0,
        suspect_after: float = 2.0,
        dead_after: float = 4.0,
        obs: "object | None" = None,
        max_series_points: "int | None" = None,
    ) -> None:
        if not (0 < suspect_after < dead_after):
            raise ValueError(
                f"need 0 < suspect_after ({suspect_after}) < "
                f"dead_after ({dead_after})"
            )
        self.netsim = netsim
        self.sample_interval = sample_interval
        self.heartbeat_interval = heartbeat_interval
        #: Missed-beat thresholds, in heartbeat intervals.
        self.suspect_after = suspect_after
        self.dead_after = dead_after
        #: Observability bundle; when set, the metrics registry reads every
        #: series this monitor keeps, the traffic counts and the execution
        #: log's event counts, and heartbeats become counters.
        self.obs = obs
        #: Retention cap applied to every TimeSeries this monitor creates.
        self.max_series_points = max_series_points
        #: The executor's alert engine, when SLO clauses are deployed;
        #: surfaces firing rules on the dashboard.
        self.alerts = None
        self._heartbeat_counters: dict[str, object] = {}
        if obs is not None:
            for events, name, help_text in (
                (("dead-letter",), "monitor_dead_letters_total",
                 "dead-lettered tuples surfaced to the monitor"),
                (("reassigned",), "monitor_assignment_changes_total",
                 "process re-placements (when the assignment changes)"),
                (CONTROLS, "monitor_control_commands_total",
                 "trigger commands actuated by the control plane"),
                (KEY_MOVES, "monitor_key_migrations_total",
                 "elastic-sharding key migrations and hot-key splits"),
            ):
                obs.metrics.reader(
                    name, "counter",
                    lambda events=events: len(self.records(*events)),
                    help_text,
                )
            for name, help_text in (
                ("messages_sent", "messages handed to the simulator"),
                ("messages_delivered", "messages delivered"),
                ("messages_dropped", "messages lost in the network"),
                ("tuples_sent", "payload tuples handed to the simulator "
                                "(batches unrolled)"),
                ("tuples_delivered",
                 "payload tuples delivered (batches unrolled)"),
            ):
                obs.metrics.reader(
                    f"network_{name}", "gauge",
                    lambda name=name: getattr(self.netsim.stats, name),
                    help_text,
                )
            obs.metrics.reader(
                "network_link_bytes", "gauge", netsim.total_link_bytes,
                "total bytes moved across all links",
            )
        #: (deployment, process) -> tuples/sec series.
        self.operation_rates: dict[str, TimeSeries] = {}
        #: node -> utilization series.
        self.node_utilization: dict[str, TimeSeries] = {}
        #: The execution log: every control-plane decision and event, in
        #: the order it happened.
        self.logs: list[LogRecord] = []
        #: Failure-detector state per node (only nodes hosting processes).
        self.node_health: dict[str, NodeHealth] = {}
        #: Fired with the node id on each ALIVE/SUSPECT -> DEAD transition.
        self.on_node_dead: list[Callable[[str], None]] = []
        self._node_last_seen: dict[str, float] = {}
        self._watched: dict[str, list[OperatorProcess]] = {}
        self._cancel = None
        self._liveness_cancel = None

    # -- registration -------------------------------------------------------

    def watch(self, deployment_name: str, processes: list[OperatorProcess]) -> None:
        self._watched[deployment_name] = list(processes)
        now = self.netsim.clock.now
        for process in processes:
            process.enable_heartbeats(self.heartbeat, self.heartbeat_interval)
            # Baseline: a node is given a full grace period from watch time
            # before its silence can be held against it.
            self._node_last_seen.setdefault(process.node_id, now)
            self.node_health.setdefault(process.node_id, NodeHealth.ALIVE)
        self.log(deployment_name, "watch", f"{len(processes)} processes")

    def unwatch(self, deployment_name: str) -> None:
        self._watched.pop(deployment_name, None)
        self.log(deployment_name, "unwatch")

    def start(self) -> None:
        if self._cancel is None:
            self._cancel = self.netsim.clock.schedule_periodic(
                self.sample_interval, self.sample
            )
        if self._liveness_cancel is None:
            self._liveness_cancel = self.netsim.clock.schedule_periodic(
                self.heartbeat_interval, self.check_liveness
            )

    def stop(self) -> None:
        if self._cancel is not None:
            self._cancel()
            self._cancel = None
        if self._liveness_cancel is not None:
            self._liveness_cancel()
            self._liveness_cancel = None

    # -- event intake ---------------------------------------------------------

    def log(self, source: str, event: str, /, detail: str = "",
            **facts: object) -> None:
        """Append one record to the execution log; the one write path."""
        self.logs.append(LogRecord(
            self.netsim.clock.now, source, event, detail, facts
        ))

    def records(self, *events: str) -> list[LogRecord]:
        """The log's records of the given events, in log order."""
        return [record for record in self.logs if record.event in events]

    def heartbeat(self, process_id: str, node_id: str, time: float) -> None:
        """Liveness beat from a watched process (wired by :meth:`watch`)."""
        self._node_last_seen[node_id] = time
        if self.obs is not None:
            counter = self._heartbeat_counters.get(node_id)
            if counter is None:
                counter = self._heartbeat_counters[node_id] = (
                    self.obs.metrics.counter(
                        "monitor_heartbeats_total",
                        "liveness beats received from watched processes",
                        node=node_id,
                    )
                )
            counter.inc()
        previous = self.node_health.get(node_id)
        if previous in (NodeHealth.SUSPECT, NodeHealth.DEAD):
            self.log(node_id, "node-alive", f"heartbeat from {process_id}")
        self.node_health[node_id] = NodeHealth.ALIVE

    # -- sampling ------------------------------------------------------------------

    def sample(self) -> None:
        """Take one sample of every watched process and every node."""
        now = self.netsim.clock.now
        obs = self.obs
        if obs is not None and obs.latency is not None:
            # Re-derive the watermark/backpressure gauges on the sample
            # cadence (the latency plane never publishes per tuple).
            obs.latency.refresh()
        for deployment, processes in self._watched.items():
            for process in processes:
                process.sample_load(now)
                key = f"{deployment}/{process.process_id}"
                series = self.operation_rates.get(key)
                if series is None:
                    series = self.operation_rates[key] = self._series(
                        key, "operation_tuples_per_second",
                        "tuples each operation handles per second",
                        process=key,
                    )
                series.record(now, process.rate.rate)
        for node in self.netsim.topology.nodes:
            series = self.node_utilization.get(node.node_id)
            if series is None:
                series = self.node_utilization[node.node_id] = self._series(
                    node.node_id, "node_utilization",
                    "fraction of a node's capacity in use",
                    node=node.node_id,
                )
            series.record(now, node.utilization)

    def _series(self, name: str, metric: str, help_text: str,
                **labels: str) -> TimeSeries:
        """A new series; the metrics registry reads its last point."""
        series = TimeSeries(name=name, max_points=self.max_series_points)
        if self.obs is not None:
            self.obs.metrics.reader(
                metric, "gauge", partial(getattr, series, "last"), help_text,
                **labels,
            )
        return series

    # -- failure detection -----------------------------------------------------------

    def check_liveness(self) -> list[str]:
        """One failure-detector round over nodes hosting watched processes.

        Returns the nodes newly declared dead this round (after firing the
        ``on_node_dead`` callbacks for each).
        """
        now = self.netsim.clock.now
        hosting: set[str] = {
            process.node_id
            for processes in self._watched.values()
            for process in processes
        }
        newly_dead: list[str] = []
        for node_id in sorted(hosting):
            silent_for = now - self._node_last_seen.get(node_id, now)
            missed = silent_for / self.heartbeat_interval
            previous = self.node_health.get(node_id, NodeHealth.ALIVE)
            if missed >= self.dead_after:
                if previous is not NodeHealth.DEAD:
                    self.node_health[node_id] = NodeHealth.DEAD
                    self.log(
                        node_id,
                        "node-dead",
                        f"no heartbeat for {silent_for:.0f}s "
                        f"(>= {self.dead_after:g} intervals)",
                    )
                    newly_dead.append(node_id)
                    for callback in list(self.on_node_dead):
                        callback(node_id)
            elif missed >= self.suspect_after:
                if previous is NodeHealth.ALIVE:
                    self.node_health[node_id] = NodeHealth.SUSPECT
                    self.log(
                        node_id,
                        "node-suspect",
                        f"no heartbeat for {silent_for:.0f}s",
                    )
            else:
                self.node_health[node_id] = NodeHealth.ALIVE
        return newly_dead

    # -- the "web interface" view ---------------------------------------------------

    def suffering_nodes(self, threshold: float = 0.9) -> list[str]:
        """Nodes currently above the utilization threshold."""
        return sorted(
            node.node_id
            for node in self.netsim.topology.nodes
            if node.is_overloaded(threshold)
        )

    def current_assignments(self) -> dict[str, str]:
        """process key -> node currently executing it."""
        return {
            f"{deployment}/{process.process_id}": process.node_id
            for deployment, processes in self._watched.items()
            for process in processes
        }

    def report(self) -> dict:
        """The statistics panel: everything Figure 3 displays, as data."""
        report = {
            "time": self.netsim.clock.now,
            "backend": getattr(self.netsim, "backend_name", "sim"),
            "operation_rates": {
                key: series.last for key, series in self.operation_rates.items()
            },
            "node_utilization": {
                key: series.last for key, series in self.node_utilization.items()
            },
            "suffering_nodes": self.suffering_nodes(),
            "assignments": self.current_assignments(),
            "assignment_changes": len(self.records("reassigned")),
            "key_migrations": len(self.records(*KEY_MOVES)),
            "controls": len(self.records(*CONTROLS)),
            "node_health": {
                node_id: health.value
                for node_id, health in sorted(self.node_health.items())
            },
            "dead_letters": len(self.records("dead-letter")),
            "network": {
                "messages_sent": self.netsim.stats.messages_sent,
                "messages_delivered": self.netsim.stats.messages_delivered,
                "messages_dropped": self.netsim.stats.messages_dropped,
                "tuples_sent": self.netsim.stats.tuples_sent,
                "tuples_delivered": self.netsim.stats.tuples_delivered,
                "mean_delay": self.netsim.stats.mean_delay,
                "link_bytes": self.netsim.total_link_bytes(),
            },
        }
        plane = self.obs.latency if self.obs is not None else None
        if plane is not None:
            memo: dict = {}
            report["watermarks"] = {
                key: {
                    "watermark": plane.watermark(key, memo),
                    "lag": plane.watermark_lag(key, memo),
                }
                for key in sorted(plane.probes)
            }
        if self.alerts is not None:
            report["alerts"] = {
                "firing": self.alerts.firing(),
                "transitions": len(self.records(*TRANSITIONS)),
            }
        # Real-backend queue health; the simulator has no queues to report.
        health = getattr(self.netsim, "backend_health", None)
        if health is not None:
            report["backend_health"] = health()
        return report

    def render_dashboard(self) -> str:
        """ASCII rendering of the monitoring screen (Figure 3 stand-in)."""
        report = self.report()
        # The sim header is golden-pinned; only non-default backends tag it.
        backend = report["backend"]
        tag = "" if backend == "sim" else f" [{backend}]"
        lines = [
            f"== StreamLoader monitor @ t={report['time']:.0f}s =={tag}",
            "-- operations (tuples/s) --",
        ]
        for key in sorted(report["operation_rates"]):
            rate = report["operation_rates"][key] or 0.0
            node = report["assignments"].get(key, "?")
            bar = "#" * min(40, int(rate))
            lines.append(f"  {key:40s} {rate:8.2f}  on {node:10s} {bar}")
        lines.append("-- nodes (utilization) --")
        for key in sorted(report["node_utilization"]):
            util = report["node_utilization"][key] or 0.0
            flag = "  << SUFFERING" if key in report["suffering_nodes"] else ""
            bar = "#" * min(40, int(util * 40))
            lines.append(f"  {key:20s} {util:6.1%} {bar}{flag}")
        network = report["network"]
        delivered = f"{network['messages_delivered']} delivered"
        if network["tuples_delivered"] != network["messages_delivered"]:
            delivered += f" ({network['tuples_delivered']} tuples)"
        lines.append(
            f"-- network: {delivered}, "
            f"{network['messages_dropped']} dropped, "
            f"{report['dead_letters']} dead-lettered, "
            f"{network['link_bytes']:.0f} bytes on links --"
        )
        unhealthy = {
            node: health
            for node, health in report["node_health"].items()
            if health != NodeHealth.ALIVE.value
        }
        if unhealthy:
            lines.append("-- node health --")
            for node, health in unhealthy.items():
                lines.append(f"  {node:20s} {health.upper()}")
        reassigned = self.records("reassigned")
        if reassigned:
            lines.append("-- reassignments --")
            for record in reassigned[-5:]:
                facts = record.facts
                lines.append(
                    f"  t={record.time:.0f}: {record.source} "
                    f"{facts['from_node']} -> {facts['to_node']}"
                )
        key_moves = self.records(*KEY_MOVES)
        if key_moves:
            lines.append("-- key migrations --")
            for record in key_moves[-5:]:
                facts = record.facts
                targets = ",".join(str(shard) for shard in facts["to_shards"])
                lines.append(
                    f"  t={record.time:.0f}: {record.source} {facts['key']} "
                    f"shard {facts['from_shard']} -> [{targets}] "
                    f"({record.event[len('key-'):]})"
                )
        watermarks = report.get("watermarks")
        if watermarks:
            lines.append("-- watermarks (lag behind sources) --")
            for key in sorted(watermarks):
                lag = watermarks[key]["lag"]
                lag_text = f"{lag:10.1f}s" if lag is not None else "      cold"
                bar = "#" * min(40, int(lag)) if lag is not None else ""
                lines.append(f"  {key:40s} {lag_text} {bar}")
        alerts = report.get("alerts")
        if alerts is not None:
            lines.append(
                f"-- alerts ({alerts['transitions']} transitions) --"
            )
            for name in alerts["firing"]:
                lines.append(f"  {name:40s} FIRING")
            if not alerts["firing"]:
                lines.append("  none firing")
        return "\n".join(lines)
