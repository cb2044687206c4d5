"""Translator: validated conceptual dataflow -> DSN program.

"Once the dataflow is consistent (i.e. it can be soundly activated at
network level), the translation is automatically invoked."  The translator
therefore *refuses* inconsistent dataflows: it validates first and raises
:class:`repro.errors.ValidationError` with the canvas issues.
"""

from __future__ import annotations

from repro.dataflow.graph import Dataflow
from repro.dataflow.serialize import _filter_to_dict
from repro.dataflow.validate import validate_dataflow
from repro.dsn.ast import (
    DsnChannel,
    DsnControl,
    DsnProgram,
    DsnService,
    DsnShard,
    DsnSlo,
    ServiceRole,
)
from repro.errors import DataflowError
from repro.pubsub.registry import SensorRegistry


def dataflow_to_dsn(
    flow: Dataflow,
    registry: "SensorRegistry | None" = None,
    validate: bool = True,
    batch_delay: "float | None" = None,
    max_batch: int = 32,
    shards: "int | dict[str, int] | None" = None,
    elastic: bool = False,
    slos: "list[DsnSlo] | None" = None,
) -> DsnProgram:
    """Translate a (consistent) dataflow into its DSN program.

    Args:
        flow: the conceptual dataflow.
        registry: resolves source filters during validation (and, with
            ``batch_delay``, supplies the declared sensor frequencies the
            batch hints are derived from).
        validate: skip validation only for flows validated immediately
            before (the designer's deploy path validates once).
        batch_delay: target per-batch latency budget in seconds.  When
            set, each channel out of a source gets a ``batch`` hint of
            roughly ``frequency x batch_delay`` tuples (the batch a source
            fills within the budget at its advertised rate), clamped to
            [1, ``max_batch``].  ``None`` (the default) emits no hints, so
            existing programs render unchanged.
        max_batch: upper clamp for derived batch hints.
        shards: scale-out directives for blocking operators.  An int
            applies to every *shardable* operator (one with partition
            keys — grouped aggregation, equi-join); operators that cannot
            shard are silently left alone.  A dict maps specific service
            names to shard counts and raises :class:`DataflowError` for a
            service that cannot honour it.  ``None`` emits no shard
            clauses, so existing programs render unchanged.
        elastic: mark every emitted shard clause ``elastic``, attaching
            the load-feedback rebalance loop at deploy time.  Ignored
            without ``shards``.
        slos: service-level objective clauses to attach verbatim.  The
            executor turns each into an alert rule and installs the
            latency plane at deploy time.  ``None`` (the default) emits no
            clauses, so existing programs render unchanged.
    """
    if validate:
        validate_dataflow(flow, registry).raise_if_invalid()

    program = DsnProgram(name=flow.name)

    for source in flow.sources.values():
        program.services.append(
            DsnService(
                role=ServiceRole.SOURCE,
                name=source.node_id,
                kind="sensor-stream",
                params={
                    "filter": _filter_to_dict(source.filter),
                    "active": source.initially_active,
                },
            )
        )
    for node in flow.operators.values():
        spec_dict = node.spec.to_dict()
        kind = spec_dict.pop("kind")
        program.services.append(
            DsnService(
                role=ServiceRole.OPERATOR,
                name=node.node_id,
                kind=kind,
                params=spec_dict,
            )
        )
    for sink in flow.sinks.values():
        program.services.append(
            DsnService(
                role=ServiceRole.SINK,
                name=sink.node_id,
                kind=sink.sink_kind,
                params={"config": dict(sink.config)},
                qos=sink.qos,
            )
        )

    batch_hints: dict[str, int] = {}
    if batch_delay is not None and registry is not None:
        for source in flow.sources.values():
            rate = sum(
                metadata.frequency
                for metadata in registry.all()
                if source.filter.matches(metadata)
            )
            hint = int(round(rate * batch_delay))
            batch_hints[source.node_id] = max(1, min(max_batch, hint))

    for edge in flow.data_edges:
        program.channels.append(
            DsnChannel(
                source=edge.source_id,
                target=edge.target_id,
                port=edge.port,
                batch=batch_hints.get(edge.source_id, 1),
            )
        )
    for edge in flow.control_edges:
        program.controls.append(
            DsnControl(trigger=edge.trigger_id, source=edge.source_id)
        )

    if shards is not None:
        requested = (
            shards if isinstance(shards, dict)
            else {name: shards for name in flow.operators}
        )
        explicit = isinstance(shards, dict)
        for name in sorted(requested):
            count = requested[name]
            node = flow.operators.get(name)
            if node is None:
                raise DataflowError(
                    f"shards requested for unknown operator {name!r}"
                )
            keys = node.spec.partition_keys()
            if keys is None:
                if explicit:
                    raise DataflowError(
                        f"operator {name!r} ({node.spec.kind}) cannot be "
                        "sharded: it has no partition key"
                    )
                continue  # blanket request skips unshardable operators
            if count > 1:
                program.shards.append(
                    DsnShard(service=name, count=count, keys=keys,
                             elastic=elastic)
                )

    if slos:
        program.slos = list(slos)

    program.check()
    return program


def dsn_to_dataflow(program: DsnProgram) -> Dataflow:
    """Inverse translation: DSN program -> conceptual dataflow.

    Lets the designer re-open a deployed flow on the canvas from nothing
    but its DSN text (the deployment artifact): ``dsn_to_dataflow`` ∘
    ``dataflow_to_dsn`` reconstructs a structurally identical canvas
    (source schemas are re-resolved from the registry at validation, as
    with document loading).
    """
    from repro.dataflow.ops import spec_from_dict
    from repro.dataflow.serialize import _filter_from_dict

    program.check()
    flow = Dataflow(program.name)
    for service in program.services:
        if service.role is ServiceRole.SOURCE:
            flow.add_source(
                _filter_from_dict(service.params.get("filter", {})),
                node_id=service.name,
                initially_active=bool(service.params.get("active", True)),
            )
        elif service.role is ServiceRole.OPERATOR:
            spec = spec_from_dict({"kind": service.kind, **service.params})
            flow.add_operator(spec, node_id=service.name)
        else:
            from repro.network.qos import QosPolicy

            flow.add_sink(
                sink_kind=service.kind or "collector",
                config=dict(service.params.get("config", {})),
                qos=service.qos or QosPolicy(),
                node_id=service.name,
            )
    for channel in program.channels:
        flow.connect(channel.source, channel.target, channel.port)
    for control in program.controls:
        flow.connect_control(control.trigger, control.source)
    return flow
