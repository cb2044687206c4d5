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
      channel "temp" -> "trig" port 0 batch 32 within 60.0;
      control "trig" -> "rain";
    }

Parameter values are JSON documents, which keeps the grammar small while
allowing arbitrarily structured operator parameters.

A :class:`DsnProgram` is also the designer's canvas document: the edit
calls (``add_source``, ``add_operator``, ``add_sink``, ``connect``,
``connect_control``, ...) draw services, channels and controls, and refuse
a drawing error (a port that does not exist, a sink kind the paper does
not name) at the call.  DSN text parses to the same type.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum

import networkx as nx

from repro.errors import DataflowError, DsnError, PortError
from repro.network.qos import QosPolicy
from repro.pubsub.subscription import BatchingPolicy, SubscriptionFilter
from repro.stt.spatial import Box
from repro.stt.thematic import Theme

TRIGGER_KINDS = ("trigger-on", "trigger-off")


class SinkKind:
    """Sink destinations the paper names (P2)."""

    WAREHOUSE = "warehouse"
    VISUALIZATION = "visualization"
    COLLECTOR = "collector"

    ALL = (WAREHOUSE, VISUALIZATION, COLLECTOR)


def filter_to_dict(filter_: SubscriptionFilter) -> dict:
    """A source's subscription filter as its ``filter`` parameter."""
    data: dict = {}
    if filter_.sensor_ids:
        data["sensor_ids"] = list(filter_.sensor_ids)
    if filter_.sensor_type:
        data["sensor_type"] = filter_.sensor_type
    if filter_.theme is not None:
        data["theme"] = filter_.theme.path
    if filter_.area is not None:
        area = filter_.area
        data["area"] = [area.south, area.west, area.north, area.east]
    if filter_.min_frequency > 0.0:
        data["min_frequency"] = filter_.min_frequency
    if filter_.max_frequency != float("inf"):
        data["max_frequency"] = filter_.max_frequency
    return data


def filter_from_dict(data: dict) -> SubscriptionFilter:
    """The subscription filter a ``filter`` parameter declares."""
    kwargs: dict = {}
    if "sensor_ids" in data:
        kwargs["sensor_ids"] = tuple(data["sensor_ids"])
    if "sensor_type" in data:
        kwargs["sensor_type"] = data["sensor_type"]
    if "theme" in data:
        kwargs["theme"] = Theme(data["theme"])
    if "area" in data:
        south, west, north, east = data["area"]
        kwargs["area"] = Box(south=south, west=west, north=north, east=east)
    if "min_frequency" in data:
        kwargs["min_frequency"] = data["min_frequency"]
    if "max_frequency" in data:
        kwargs["max_frequency"] = data["max_frequency"]
    return SubscriptionFilter(**kwargs)


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

    def spec(self):
        """The :class:`~repro.dataflow.ops.OperatorSpec` an operator
        service declares; raises :class:`DataflowError` on bad params."""
        # Deferred: the dataflow package imports this module.
        from repro.dataflow.ops import spec_from_dict

        return spec_from_dict({"kind": self.kind, **self.params})

    def spec_class(self) -> type:
        """The spec class of an operator service's kind, read without
        building a spec from the params; raises :class:`DataflowError`
        for an unknown kind."""
        from repro.dataflow.ops import spec_class

        return spec_class(self.kind)

    def filter(self) -> SubscriptionFilter:
        """The subscription filter a source service declares."""
        return filter_from_dict(self.params.get("filter", {}))

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

    ``batch N within S`` is how the channel's source micro-batches: up
    to ``batch`` readings per message (1 = no batching), a partial batch
    flushed ``within`` virtual seconds of its first reading.  Only a
    channel out of a source batches; the executor hands the policy to
    the subscriptions it binds (:attr:`batching`).
    """

    source: str
    target: str
    port: int = 0
    batch: int = 1
    within: float = 1.0

    @property
    def batching(self) -> "BatchingPolicy | None":
        """The declared policy, or None when the channel does not batch."""
        if self.batch == 1:
            return None
        return BatchingPolicy(self.batch, self.within)

    def render(self) -> str:
        line = f'  channel "{self.source}" -> "{self.target}" port {self.port}'
        # Defaults are not rendered, so batch-free programs (and their
        # golden files) keep the historical textual form.
        if self.batch != 1 or self.within != 1.0:
            line += f" batch {self.batch}"
        if self.within != 1.0:
            line += f" within {self.within}"
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
    """A complete DSN description of one dataflow deployment, and the
    canvas document the designer edits.

    >>> flow = DsnProgram("demo")
    >>> src = flow.add_source(SubscriptionFilter(sensor_type="temperature"))
    >>> from repro.dataflow.ops import FilterSpec
    >>> op = flow.add_operator(FilterSpec("temperature > 24"))
    >>> flow.connect(src, op)
    >>> op
    'filter-2'
    """

    name: str
    services: list[DsnService] = field(default_factory=list)
    channels: list[DsnChannel] = field(default_factory=list)
    controls: list[DsnControl] = field(default_factory=list)
    shards: list[DsnShard] = field(default_factory=list)
    fuses: list[DsnFuse] = field(default_factory=list)
    slos: list[DsnSlo] = field(default_factory=list)
    #: The last auto-id number: one counter for every kind of node.
    _last_id: int = field(default=0, init=False, repr=False, compare=False)

    def _find(self, name: object) -> "DsnService | None":
        for service in self.services:
            if service.name == name:
                return service
        return None

    def service(self, name: str) -> DsnService:
        service = self._find(name)
        if service is None:
            raise DsnError(f"no service {name!r} in program {self.name!r}")
        return service

    def __contains__(self, name: object) -> bool:
        return self._find(name) is not None

    def services_by_role(self, role: ServiceRole) -> list[DsnService]:
        return [service for service in self.services if service.role is role]

    def channels_into(self, name: str) -> list[DsnChannel]:
        return sorted(
            (channel for channel in self.channels if channel.target == name),
            key=lambda channel: channel.port,
        )

    def data_graph(self) -> nx.DiGraph:
        """Services (in declaration order) joined by their channels."""
        graph = nx.DiGraph()
        graph.add_nodes_from(service.name for service in self.services)
        graph.add_edges_from((c.source, c.target) for c in self.channels)
        return graph

    # -- canvas editing ------------------------------------------------------

    def _new_id(self, prefix: str) -> str:
        while True:
            self._last_id += 1
            name = f"{prefix}-{self._last_id}"
            if name not in self:
                return name

    def _add(self, service: DsnService) -> str:
        """Declare ``service`` at the end of its role's group, so a drawn
        program lists sources, then operators, then sinks.  Raises
        :class:`DataflowError` if its name is taken."""
        if service.name in self:
            raise DataflowError(f"node id {service.name!r} already used")
        rank = list(ServiceRole).index
        at = max((index + 1 for index, other in enumerate(self.services)
                  if rank(other.role) <= rank(service.role)), default=0)
        self.services.insert(at, service)
        return service.name

    def add_source(self, filter_: SubscriptionFilter, node_id: str = "",
                   initially_active: bool = True) -> str:
        """A source bound to the sensors ``filter_`` matches; a trigger-gated
        one starts dormant (``initially_active=False``)."""
        return self._add(DsnService(
            ServiceRole.SOURCE, node_id or self._new_id("source"),
            "sensor-stream",
            {"filter": filter_to_dict(filter_), "active": initially_active}))

    def add_operator(self, spec, node_id: str = "") -> str:
        """An operator carrying ``spec`` (a Table 1 specification)."""
        params = spec.to_dict()
        kind = params.pop("kind")
        return self._add(DsnService(
            ServiceRole.OPERATOR, node_id or self._new_id(kind), kind, params))

    def add_sink(self, sink_kind: str = SinkKind.COLLECTOR,
                 config: "dict | None" = None, qos: "QosPolicy | None" = None,
                 node_id: str = "") -> str:
        """A sink: where the processed stream lands.  Raises
        :class:`DataflowError` for a kind not in :attr:`SinkKind.ALL`."""
        node_id = node_id or self._new_id("sink")
        if sink_kind not in SinkKind.ALL:
            raise DataflowError(
                f"unknown sink kind {sink_kind!r}; known: {SinkKind.ALL}")
        return self._add(DsnService(ServiceRole.SINK, node_id, sink_kind,
                                    {"config": dict(config or {})},
                                    qos or QosPolicy()))

    def replace_operator(self, node_id: str, spec) -> None:
        """Swap an operator's spec in place, keeping its edges (P3)."""
        old = self._find(node_id)
        if old is None or old.role is not ServiceRole.OPERATOR:
            raise DataflowError(f"no operator node {node_id!r}")
        count = old.spec_class().input_count
        if count != spec.input_count:
            raise DataflowError(
                f"replacement for {node_id!r} must keep {count} input "
                f"port(s), new spec has {spec.input_count}")
        params = spec.to_dict()
        self.services[self.services.index(old)] = replace(
            old, kind=params.pop("kind"), params=params)

    def connect(self, source_id: str, target_id: str, port: int = 0) -> None:
        """Draw a data channel: source_id's output into target_id's port.

        Raises :class:`PortError` when the drawing is wrong on its face: a
        sink or a trigger as producer, a source as consumer, a port the
        consumer does not have, or one already fed.
        """
        out, into = self._find(source_id), self._find(target_id)
        for name, node in ((source_id, out), (target_id, into)):
            if node is None:
                raise DataflowError(f"no node {name!r} in dataflow {self.name!r}")
        if out.role is ServiceRole.SINK:
            raise PortError(f"sink {source_id!r} has no output to connect")
        if out.role is ServiceRole.OPERATOR and not out.spec_class().has_output:
            raise PortError(f"{out.kind} {source_id!r} is control-only; it "
                            "has no data output")
        if into.role is ServiceRole.SOURCE:
            raise PortError(f"source {target_id!r} cannot receive a data edge")
        ports = (into.spec_class().input_count
                 if into.role is ServiceRole.OPERATOR else 1)
        if not 0 <= port < ports:
            raise PortError(
                f"{target_id!r} has ports 0..{ports - 1}, got {port}")
        for channel in self.channels_into(target_id):
            if channel.port == port:
                raise PortError(f"port {port} of {target_id!r} is already "
                                f"connected (from {channel.source!r})")
        self.channels.append(DsnChannel(source_id, target_id, port))

    def connect_control(self, trigger_id: str, source_id: str) -> None:
        """Draw a control edge from a trigger to a source it governs."""
        trigger, source = self._find(trigger_id), self._find(source_id)
        if trigger is None or trigger.kind not in TRIGGER_KINDS:
            raise PortError(f"{trigger_id!r} is not a trigger node")
        if source is None or source.role is not ServiceRole.SOURCE:
            raise PortError(
                f"control edges must target sources, not {source_id!r}")
        control = DsnControl(trigger_id, source_id)
        if control in self.controls:
            raise PortError(f"control edge {trigger_id!r}->{source_id!r} exists")
        self.controls.append(control)

    def disconnect(self, source_id: str, target_id: str, port: int = 0) -> None:
        """Erase a data channel drawn with :meth:`connect`."""
        for channel in self.channels:
            if (channel.source, channel.target, channel.port) == (
                    source_id, target_id, port):
                self.channels.remove(channel)
                return
        raise DataflowError(f"no data edge {source_id!r}->{target_id!r}")

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
