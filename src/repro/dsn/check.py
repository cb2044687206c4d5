"""The consistency check: one pass over a DSN program before it deploys.

"The user interface provides different checks in order to draw only
dataflows that can be soundly translated in the DSN/SCN specification."

:func:`check` holds every rule a program must pass to be activated.  It
reads the program and the sensor registry and writes into neither.  Its
issues are anchored to service names, which are the canvas node ids, and
its report carries the schema each service emits.  A program with no
*error* deploys; *warnings* flag legal but suspicious designs.
:meth:`repro.runtime.executor.Executor.deploy` runs it once per program,
lowered from a canvas or parsed from text, before anything is placed.

Rules:

D   declarations: unique service names; channels, controls, shards and
    fuse hints name declared services, shards and fuse hints operators; a
    shard count is >= 1, one clause per service; a fuse hint has >= 2
    members, each in one hint, on fusible hops; an slo clause has a known
    comparator and a window >= 0; a channel's ``batch N within S`` has
    N >= 1 and S > 0, and N > 1 only out of a source;
C1  structure: data channels form a DAG;
C2  ports: every operator input port is fed exactly once, and no channel
    enters a port that does not exist;
C3  roles: sources feed something and receive nothing; a sink is fed one
    stream on port 0 and feeds nothing; operator outputs are consumed;
    control edges run from triggers to sources;
C4  schemas: schema propagation succeeds at every service (parameters,
    types, attribute existence, aggregation functions, join collisions);
C5  conditions: every condition/predicate/spec type-checks against its
    input schema;
C6  triggers: a trigger controls a source, and its named targets match
    the sources it controls;
C7  sensors: a source filter matches published sensors of one schema,
    which is the source's schema;
C8  sinks: a warehouse sink receives a non-empty payload;
C9  thematics: joining streams with disjoint theme sets is a warning
    (legal, but usually a mis-drawn edge);
K   processes: no two processes of the deployment share a key.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.dataflow.fusion import fusible_hops
from repro.dataflow.graph import SinkKind
from repro.dataflow.ops import spec_from_dict
from repro.dataflow.serialize import _filter_from_dict
from repro.dsn.ast import DsnProgram, ServiceRole
from repro.errors import (
    DataflowError, ExpressionError, SchemaError, StreamLoaderError,
    ValidationError,
)
from repro.pubsub.registry import SensorRegistry
from repro.schema.schema import StreamSchema

ERROR = "error"
WARNING = "warning"

_TRIGGERS = ("trigger-on", "trigger-off")


@dataclass(frozen=True)
class ValidationIssue:
    """One finding, anchored to a service (a canvas node)."""

    level: str
    node_id: str
    message: str

    def __str__(self) -> str:
        return f"[{self.level}] {self.node_id}: {self.message}"


@dataclass
class ValidationReport:
    """Outcome of the check: issues plus each service's schema."""

    issues: list[ValidationIssue]
    schemas: dict[str, "StreamSchema | None"]

    @property
    def errors(self) -> list[ValidationIssue]:
        return [issue for issue in self.issues if issue.level == ERROR]

    @property
    def warnings(self) -> list[ValidationIssue]:
        return [issue for issue in self.issues if issue.level == WARNING]

    @property
    def is_valid(self) -> bool:
        """True when the program can be soundly activated."""
        return not self.errors

    def raise_if_invalid(self) -> None:
        if not self.is_valid:
            raise ValidationError(self.errors)

    def error(self, node_id: str, message: str) -> None:
        self.issues.append(ValidationIssue(ERROR, node_id, message))

    def warning(self, node_id: str, message: str) -> None:
        self.issues.append(ValidationIssue(WARNING, node_id, message))


def check(program: DsnProgram, registry: SensorRegistry) -> ValidationReport:
    """Run every rule over ``program``; never raises on an unsound one."""
    report = ValidationReport(issues=[], schemas={})
    if _declarations(program, report):
        _dataflow(program, registry, report)
    if report.is_valid:
        # Deferred: the runtime package imports this module.
        from repro.runtime.plan import unit_keys

        declared = {service.name for service in program.services}
        seen: set[str] = set()
        for key, services, _ in unit_keys(program):
            if key in seen or (key in declared and key not in services):
                report.error(services[0], f"process key {key!r} of program "
                                          f"{program.name!r} is not unique")
            seen.add(key)
    return report


def _declarations(program: DsnProgram, report: ValidationReport) -> bool:
    """Rule D.  False when channels and controls do not join declared
    services, so the dataflow rules cannot run."""
    roles: dict[str, ServiceRole] = {}
    for service in program.services:
        if service.name in roles:
            report.error(service.name, f"program {program.name!r} declares "
                                       "duplicate services")
        roles[service.name] = service.role
    ends = [("channel", c.source) for c in program.channels]
    ends += [("channel", c.target) for c in program.channels]
    ends += [("control", end) for c in program.controls
             for end in (c.trigger, c.source)]
    for clause, name in ends:
        if name not in roles:
            report.error(program.name,
                         f"{clause} references undeclared service {name!r}")
    well_formed = report.is_valid

    def operator(name: str, clause: str, label: str) -> bool:
        if name not in roles:
            report.error(program.name,
                         f"{clause} references undeclared service {name!r}")
        elif roles[name] is not ServiceRole.OPERATOR:
            report.error(name, f"{clause} {label} {name!r} is not an operator")
        return roles.get(name) is ServiceRole.OPERATOR

    sharded: set[str] = set()
    for shard in program.shards:
        name = shard.service
        if operator(name, "shard", "target"):
            if shard.count < 1:
                report.error(name, f"shard count for {name!r} must be >= 1, "
                                   f"got {shard.count}")
            if name in sharded:
                report.error(name, f"duplicate shard directive for {name!r}")
            sharded.add(name)
    hops, fused = fusible_hops(program), set()
    for fuse in program.fuses:
        members = list(fuse.members)
        if len(members) < 2:
            report.error(members[0] if members else program.name,
                         f"fuse hint {members!r} needs at least 2 services")
        for member in members:
            if operator(member, "fuse", "member") and member in fused:
                report.error(member, f"service {member!r} appears in more "
                                     "than one fuse hint")
            fused.add(member)
        for source, target in zip(members, members[1:]):
            if hops.get(source) != target:
                report.error(source, f"fuse hint {members!r}: {source!r} -> "
                                     f"{target!r} is not a fusible hop "
                                     "(members must be unsharded non-blocking "
                                     "operators on a private single-in/"
                                     "single-out channel)")
    for channel in program.channels:
        hop = f"channel {channel.source!r} -> {channel.target!r}"
        if channel.batch < 1:
            report.error(channel.source, f"{hop}: batch must be >= 1, got "
                                         f"{channel.batch}")
        elif channel.batch != 1 and roles.get(
                channel.source, ServiceRole.SOURCE) is not ServiceRole.SOURCE:
            report.error(channel.source, f"{hop}: batch {channel.batch} out "
                                         "of a service that is not a source; "
                                         "only sources micro-batch")
        if channel.within <= 0:
            report.error(channel.source, f"{hop}: batch flush bound must be "
                                         f"> 0 s, got {channel.within}")
    for slo in program.slos:
        if slo.op not in ("<", "<=", ">", ">="):
            report.error(program.name, f"slo for {slo.flow!r}: unknown "
                                       f"comparator {slo.op!r}")
        if slo.window < 0:
            report.error(program.name, f"slo for {slo.flow!r}: window must "
                                       f"be >= 0, got {slo.window}")
    return well_formed


def _dataflow(program: DsnProgram, registry: SensorRegistry,
              report: ValidationReport) -> None:
    """Rules C1-C9 over the program's services, channels and controls."""
    sources = {s.name: s for s in program.services_by_role(ServiceRole.SOURCE)}
    sinks = {s.name: s for s in program.services_by_role(ServiceRole.SINK)}
    specs = {}
    for service in program.services_by_role(ServiceRole.OPERATOR):
        try:
            specs[service.name] = spec_from_dict(
                {"kind": service.kind, **service.params})
        except (StreamLoaderError, KeyError, TypeError) as exc:
            report.error(service.name, f"{service.kind}: {exc}")
    inputs = {service.name: [] for service in program.services}
    outputs = {service.name: [] for service in program.services}
    for channel in sorted(program.channels, key=lambda c: c.port):
        inputs[channel.target].append(channel)
        outputs[channel.source].append(channel)
    governed = {control.source for control in program.controls}

    # C1: acyclicity.
    graph = nx.DiGraph()
    graph.add_nodes_from(inputs)
    graph.add_edges_from((c.source, c.target) for c in program.channels)
    if not nx.is_directed_acyclic_graph(graph):
        cycle = nx.find_cycle(graph)
        path = " -> ".join(edge[0] for edge in cycle) + f" -> {cycle[-1][1]}"
        report.error(cycle[0][0], f"data edges form a cycle: {path}")
        return

    if not sources:
        report.error(program.name, "dataflow has no sources")
    if not sinks and not any(s.kind in _TRIGGERS for s in program.services):
        report.warning(program.name,
                       "dataflow has no sinks; results go nowhere")

    # C2/C3: ports and roles.
    for name, spec in specs.items():
        ports = [channel.port for channel in inputs[name]]
        for port in range(spec.input_count):
            count = ports.count(port)
            if count == 0:
                report.error(name, f"input port {port} is not connected")
            elif count > 1:
                report.error(name, f"input port {port} has {count} incoming "
                                   "edges")
        for port in sorted(set(ports) - set(range(spec.input_count))):
            report.error(name, f"input port {port} does not exist; "
                               f"{spec.kind} has {spec.input_count}")
        if spec.has_output and not outputs[name]:
            report.error(name, "operator output is not connected to anything")
        if not spec.has_output and outputs[name]:
            report.error(name, "control-only operator has data outputs")
    for name in sources:
        if inputs[name]:
            report.error(name, "source cannot receive a data edge")
        if not outputs[name] and name not in governed:
            report.warning(name,
                           "source is not consumed by any operator or sink")
    for name in sinks:
        if not inputs[name]:
            report.error(name, "sink has no incoming stream")
        elif len(inputs[name]) > 1 or inputs[name][0].port:
            report.error(name, "sinks accept a single stream on port 0")
        if outputs[name]:
            report.error(name, "sink has no output to connect")
    for control in program.controls:
        if program.service(control.trigger).kind not in _TRIGGERS:
            report.error(control.trigger,
                         f"{control.trigger!r} is not a trigger node")
        if control.source not in sources:
            report.error(control.trigger, "control edges must target "
                                          f"sources, not {control.source!r}")

    # C7: source filters against the registry.
    schemas = report.schemas
    filters = {}
    for name, service in sources.items():
        filters[name] = match = _filter_from_dict(
            service.params.get("filter", {}))
        sensors = [m for m in registry.all() if match.matches(m)]
        schemas[name] = sensors[0].schema if sensors else None
        if not sensors:
            report.error(name, "source filter matches no published sensor")
            continue
        mismatched = [m.sensor_id for m in sensors[1:]
                      if m.schema.names != schemas[name].names]
        if mismatched:
            report.error(name, "source filter matches sensors with "
                               f"incompatible schemas: {sensors[0].sensor_id}"
                               f" vs {mismatched}")

    # C4/C5/C9: schema propagation in topological order.
    for name in nx.topological_sort(graph):
        if name in sources:
            continue
        upstream = [schemas.get(channel.source) for channel in inputs[name]]
        spec = specs.get(name)
        if None in upstream or not upstream:
            schemas[name] = None
        elif name in sinks:
            schemas[name] = upstream[0]
        elif spec is None or len(upstream) != spec.input_count:
            schemas[name] = None
        else:
            try:
                schemas[name] = spec.infer_schema(upstream)
            except (SchemaError, DataflowError, ExpressionError) as exc:
                report.error(name, f"{spec.kind}: {exc}")
                schemas[name] = None
                continue
            if spec.kind != "join":
                continue
            left, right = (schema.themes for schema in upstream)
            if left and right and not any(
                    a.matches(b) for a in left for b in right):
                report.warning(name, "joining thematically unrelated streams "
                                     f"({', '.join(map(str, left))} vs "
                                     f"{', '.join(map(str, right))})")

    # C6: trigger control edges.
    for name, spec in specs.items():
        if spec.kind not in _TRIGGERS:
            continue
        governs = [control.source for control in program.controls
                   if control.trigger == name and control.source in sources]
        if not governs:
            report.error(name, "trigger has no control edges to sources")
        targets = set(spec.targets)
        for source in governs:
            ids = set(filters[source].sensor_ids)
            if ids and not ids & targets and not any(
                target in registry
                and filters[source].matches(registry.get(target))
                for target in targets
            ):
                report.warning(source, "controlled source's filter does not "
                                       "overlap the trigger's declared "
                                       f"targets {sorted(targets)}")
            if sources[source].params.get("active", True) and (
                    spec.kind == "trigger-on"):
                report.warning(source, "trigger-on controls a source that is "
                                       "initially active; the trigger will "
                                       "have nothing to activate")

    # C8: warehouse sinks need a non-empty payload schema.
    for name, service in sinks.items():
        schema = schemas.get(name)
        if service.kind == SinkKind.WAREHOUSE and schema is not None and (
                len(schema) == 0):
            report.error(name, "warehouse sink receives an empty payload "
                               "schema")
