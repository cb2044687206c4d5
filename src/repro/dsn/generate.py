"""Translator: conceptual dataflow <-> DSN program.

"Once the dataflow is consistent (i.e. it can be soundly activated at
network level), the translation is automatically invoked."  Translation
only lowers (and :func:`dsn_to_dataflow` only rebuilds): whether the
program is consistent is :func:`repro.dsn.check.check`'s call, which runs
on the lowered program, once per deploy.
"""

from __future__ import annotations

from dataclasses import replace

from repro.dataflow.graph import Dataflow
from repro.dataflow.serialize import _filter_to_dict
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
from repro.pubsub.subscription import BatchingPolicy


def dataflow_to_dsn(
    flow: Dataflow,
    registry: "SensorRegistry | None" = None,
    batching: "BatchingPolicy | None" = None,
    shards: "int | dict[str, int] | None" = None,
    elastic: bool = False,
    slos: "list[DsnSlo] | None" = None,
) -> DsnProgram:
    """Lower a dataflow into its DSN program.

    Args:
        flow: the conceptual dataflow.
        registry: not read: the lowering needs no sensor facts (the
            check reads them).  Kept for positional callers.
        batching: the micro-batch policy written on every channel out of
            a source (``batch N within S``).  ``None`` (the default)
            writes none, so existing programs render unchanged.
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

    for edge in flow.data_edges:
        channel = DsnChannel(edge.source_id, edge.target_id, edge.port)
        if batching is not None and edge.source_id in flow.sources:
            channel = replace(channel, batch=batching.max_batch,
                              within=batching.max_delay)
        program.channels.append(channel)
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
    return program


def dsn_to_dataflow(program: DsnProgram) -> Dataflow:
    """Inverse translation: DSN program -> conceptual dataflow.

    Lets the designer re-open a deployed flow on the canvas from nothing
    but its DSN text (the deployment artifact): ``dsn_to_dataflow`` ∘
    ``dataflow_to_dsn`` reconstructs a structurally identical canvas.
    """
    from repro.dataflow.ops import spec_from_dict
    from repro.dataflow.serialize import _filter_from_dict

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
