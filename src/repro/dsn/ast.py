"""DSN program model and textual rendering.

A DSN program declares *services* (sources, operators, sinks), *channels*
(typed message exchanges between services) and *controls* (trigger
activation edges), each with JSON-valued parameters::

    dsn "osaka-scenario" {
      service source "temp" {
        param filter = {"sensor_ids": ["osaka-temp-umeda"]};
        param active = true;
      }
      service operator "trig" kind "trigger-on" {
        param interval = 300.0;
        param condition = "avg_temperature > 25";
      }
      service sink "dw" kind "warehouse" {
        qos class "best-effort" segment 65536;
      }
      channel "temp" -> "trig" port 0;
      control "trig" -> "rain";
    }

Parameter values are JSON documents, which keeps the grammar small while
allowing arbitrarily structured operator parameters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

from repro.errors import DsnError
from repro.network.qos import QosPolicy


class ServiceRole(Enum):
    SOURCE = "source"
    OPERATOR = "operator"
    SINK = "sink"

    @classmethod
    def parse(cls, name: str) -> "ServiceRole":
        for member in cls:
            if member.value == name:
                return member
        raise DsnError(f"unknown service role {name!r}")


@dataclass(frozen=True)
class DsnService:
    """One declared service."""

    role: ServiceRole
    name: str
    kind: str = ""
    params: "dict[str, object]" = field(default_factory=dict)
    qos: "QosPolicy | None" = None

    def render(self) -> str:
        head = f'  service {self.role.value} "{self.name}"'
        if self.kind:
            head += f' kind "{self.kind}"'
        lines = [head + " {"]
        for key in sorted(self.params):
            value = json.dumps(self.params[key], sort_keys=True)
            lines.append(f"    param {key} = {value};")
        if self.qos is not None:
            qos_line = (
                f'    qos class "{self.qos.qos_class.value}" '
                f"segment {self.qos.segment_bytes}"
            )
            if self.qos.priority:
                qos_line += f" priority {self.qos.priority}"
            if self.qos.max_latency != float("inf"):
                qos_line += f" max_latency {self.qos.max_latency}"
            lines.append(qos_line + ";")
        lines.append("  }")
        return "\n".join(lines)


@dataclass(frozen=True)
class DsnChannel:
    """A data channel between two services (into an input port).

    ``batch`` is the micro-batch hint: how many tuples the channel's
    source should coalesce per message (1 = no batching).  The translator
    derives it from declared sensor frequencies; the executor applies it
    to the deployed sources.
    """

    source: str
    target: str
    port: int = 0
    batch: int = 1

    def render(self) -> str:
        line = f'  channel "{self.source}" -> "{self.target}" port {self.port}'
        if self.batch != 1:
            # Only rendered when set, so batch-free programs (and their
            # golden files) keep the historical textual form.
            line += f" batch {self.batch}"
        return line + ";"


@dataclass(frozen=True)
class DsnShard:
    """A scale-out directive: deploy a blocking operator as N replicas.

    Deployment metadata, not dataflow semantics — the conceptual flow is
    unchanged; the executor fans the service out into ``count`` shard
    processes partitioned on ``keys`` (one attribute for a group-by
    aggregation; the left and right equi-join attributes for a join) plus
    a merge stage.  ``count=1`` is legal and means "no fan-out".
    """

    service: str
    count: int
    keys: tuple[str, ...] = ()
    #: Attach the load-feedback rebalance loop: keys may migrate between
    #: shards (and hot keys split) at runtime instead of staying pinned
    #: to their hash slot.
    elastic: bool = False

    def render(self) -> str:
        line = f'  shard "{self.service}" {self.count}'
        if self.keys:
            line += " by " + ", ".join(f'"{key}"' for key in self.keys)
        if self.elastic:
            line += " elastic"
        return line + ";"


@dataclass(frozen=True)
class DsnFuse:
    """An operator-fusion hint: host a chain of non-blocking operators
    in one process.

    Deployment metadata, not dataflow semantics — the conceptual flow is
    unchanged; the executor runs the ``members`` chain as a single
    :class:`~repro.streams.fused.FusedOperator` process, eliding the
    interior publish/transmit/deliver hops.  A program without ``fuse``
    clauses still fuses by default (the planner derives maximal chains at
    deploy time); an explicit clause pins the plan.
    """

    members: tuple[str, ...]

    def render(self) -> str:
        chain = " -> ".join(f'"{member}"' for member in self.members)
        return f"  fuse {chain};"


@dataclass(frozen=True)
class DsnSlo:
    """A service-level objective declared against the deployment.

    Deployment metadata, not dataflow semantics: the executor turns each
    clause into an :class:`~repro.obs.alerts.AlertRule` (and installs the
    latency plane to feed it).  ``flow`` is a scope label carried into the
    alert events — usually the dataflow's name.  The clause states the
    *healthy* objective; the alert fires while it is violated::

        slo "osaka" p99_latency < 5.0 over 60;
        slo "osaka" watermark_lag < 450 over 0;

    ``window`` is the rolling evaluation window in seconds (0 =
    instantaneous; for latency quantiles a positive window computes the
    quantile over only that window's observations — the burn-rate form).
    """

    flow: str
    metric: str
    op: str
    threshold: float
    window: float = 0.0

    def render(self) -> str:
        return (
            f'  slo "{self.flow}" {self.metric} {self.op} '
            f"{self.threshold:g} over {self.window:g};"
        )


@dataclass(frozen=True)
class DsnControl:
    """A control edge: a trigger service governing a source service."""

    trigger: str
    source: str

    def render(self) -> str:
        return f'  control "{self.trigger}" -> "{self.source}";'


@dataclass
class DsnProgram:
    """A complete DSN description of one dataflow deployment."""

    name: str
    services: list[DsnService] = field(default_factory=list)
    channels: list[DsnChannel] = field(default_factory=list)
    controls: list[DsnControl] = field(default_factory=list)
    shards: list[DsnShard] = field(default_factory=list)
    fuses: list[DsnFuse] = field(default_factory=list)
    slos: list[DsnSlo] = field(default_factory=list)

    def service(self, name: str) -> DsnService:
        for service in self.services:
            if service.name == name:
                return service
        raise DsnError(f"no service {name!r} in program {self.name!r}")

    def services_by_role(self, role: ServiceRole) -> list[DsnService]:
        return [service for service in self.services if service.role is role]

    def channels_into(self, name: str) -> list[DsnChannel]:
        return sorted(
            (channel for channel in self.channels if channel.target == name),
            key=lambda channel: channel.port,
        )

    def check(self) -> None:
        """Structural sanity: channel/control endpoints must be declared."""
        names = {service.name for service in self.services}
        if len(names) != len(self.services):
            raise DsnError(f"program {self.name!r} declares duplicate services")
        for channel in self.channels:
            for endpoint in (channel.source, channel.target):
                if endpoint not in names:
                    raise DsnError(
                        f"channel references undeclared service {endpoint!r}"
                    )
        for control in self.controls:
            for endpoint in (control.trigger, control.source):
                if endpoint not in names:
                    raise DsnError(
                        f"control references undeclared service {endpoint!r}"
                    )
        sharded = set()
        for shard in self.shards:
            if shard.service not in names:
                raise DsnError(
                    f"shard references undeclared service {shard.service!r}"
                )
            if self.service(shard.service).role is not ServiceRole.OPERATOR:
                raise DsnError(
                    f"shard target {shard.service!r} is not an operator"
                )
            if shard.count < 1:
                raise DsnError(
                    f"shard count for {shard.service!r} must be >= 1, "
                    f"got {shard.count}"
                )
            if shard.service in sharded:
                raise DsnError(
                    f"duplicate shard directive for {shard.service!r}"
                )
            sharded.add(shard.service)
        fused = set()
        for fuse in self.fuses:
            if len(fuse.members) < 2:
                raise DsnError(
                    f"fuse hint {list(fuse.members)!r} needs at least 2 "
                    "services"
                )
            for member in fuse.members:
                if member not in names:
                    raise DsnError(
                        f"fuse references undeclared service {member!r}"
                    )
                if self.service(member).role is not ServiceRole.OPERATOR:
                    raise DsnError(
                        f"fuse member {member!r} is not an operator"
                    )
                if member in fused:
                    raise DsnError(
                        f"service {member!r} appears in more than one "
                        "fuse hint"
                    )
                fused.add(member)
        for slo in self.slos:
            if slo.op not in ("<", "<=", ">", ">="):
                raise DsnError(
                    f"slo for {slo.flow!r}: unknown comparator {slo.op!r}"
                )
            if slo.window < 0:
                raise DsnError(
                    f"slo for {slo.flow!r}: window must be >= 0, "
                    f"got {slo.window}"
                )

    def render(self) -> str:
        """The canonical textual form (stable: services/edges in order)."""
        lines = [f'dsn "{self.name}" {{']
        for service in self.services:
            lines.append(service.render())
        for channel in self.channels:
            lines.append(channel.render())
        for control in self.controls:
            lines.append(control.render())
        # Shards and fuse hints render last so programs without them (and
        # their golden files) keep the historical textual form.
        for shard in self.shards:
            lines.append(shard.render())
        for fuse in self.fuses:
            lines.append(fuse.render())
        for slo in self.slos:
            lines.append(slo.render())
        lines.append("}")
        return "\n".join(lines) + "\n"
