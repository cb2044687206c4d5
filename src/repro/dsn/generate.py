"""Deployment clauses: how a drawn program is to run.

"Once the dataflow is consistent (i.e. it can be soundly activated at
network level), the translation is automatically invoked."  The designer
draws the DSN program itself (:class:`repro.dsn.ast.DsnProgram`), so the
translation to text is :meth:`DsnProgram.render`.  What is left here is
:func:`dataflow_to_dsn`, the one function that writes deployment clauses
(micro-batching, shards, elastic rebalancing, SLOs) onto a *copy* of a
program.  Whether the result is consistent is
:func:`repro.dsn.check.check`'s call, once per deploy.
"""

from __future__ import annotations

from dataclasses import replace

from repro.dsn.ast import DsnProgram, DsnShard, DsnSlo, ServiceRole
from repro.errors import DataflowError, StreamLoaderError
from repro.pubsub.registry import SensorRegistry
from repro.pubsub.subscription import BatchingPolicy


def dataflow_to_dsn(
    program: DsnProgram,
    registry: "SensorRegistry | None" = None,
    batching: "BatchingPolicy | None" = None,
    shards: "int | dict[str, int] | None" = None,
    elastic: bool = False,
    slos: "list[DsnSlo] | None" = None,
) -> DsnProgram:
    """A copy of ``program`` with deployment clauses written on it.

    The copy has its own service and clause lists: editing either program
    afterwards leaves the other as it was.

    Args:
        program: the drawn (or parsed) program; it is not modified.
        registry: not read.  Only the benchmark harness
            (``benchmarks/harness/sut.py``) still passes it, positionally;
            it stays until that file changes.
        batching: the micro-batch policy written on every channel out of
            a source (``batch N within S``).  ``None`` (the default)
            writes none, so existing programs render unchanged.
        shards: scale-out directives for blocking operators.  An int
            applies to every *shardable* operator (one with partition
            keys — grouped aggregation, equi-join); operators that cannot
            shard, or whose params are malformed (the check reports
            those), are silently left alone.  A dict maps specific
            service names to shard counts and raises
            :class:`DataflowError` for a service that cannot honour it.
            ``None`` adds no shard clauses, so existing programs render
            unchanged.
        elastic: mark every added shard clause ``elastic``, attaching the
            load-feedback rebalance loop at deploy time.  Ignored without
            ``shards``.
        slos: service-level objective clauses to append verbatim.  The
            executor turns each into an alert rule and installs the
            latency plane at deploy time.
    """
    del registry
    sources = {s.name for s in program.services_by_role(ServiceRole.SOURCE)}
    copy = replace(
        program, services=list(program.services),
        channels=[
            replace(channel, batch=batching.max_batch,
                    within=batching.max_delay)
            if batching is not None and channel.source in sources
            else channel
            for channel in program.channels
        ],
        controls=list(program.controls), shards=list(program.shards),
        fuses=list(program.fuses), slos=[*program.slos, *(slos or ())],
    )
    if shards is None:
        return copy
    operators = {s.name: s for s in program.services_by_role(ServiceRole.OPERATOR)}
    explicit = isinstance(shards, dict)
    requested = shards if explicit else dict.fromkeys(operators, shards)
    for name in sorted(requested):
        count = requested[name]
        if name not in operators:
            raise DataflowError(f"shards requested for unknown operator {name!r}")
        try:
            keys = operators[name].spec().partition_keys()
        except (StreamLoaderError, KeyError, TypeError) as exc:
            if explicit:
                raise DataflowError(
                    f"operator {name!r} cannot be sharded: {exc}") from exc
            continue  # a malformed operator is the check's to report (C4)
        if keys is None:
            if explicit:
                raise DataflowError(
                    f"operator {name!r} ({operators[name].kind}) cannot be "
                    "sharded: it has no partition key"
                )
            continue  # blanket request skips unshardable operators
        if count > 1:
            copy.shards.append(
                DsnShard(service=name, count=count, keys=keys, elastic=elastic))
    return copy
