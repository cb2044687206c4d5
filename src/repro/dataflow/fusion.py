"""Fusion planner: find operator chains that can share one process.

A *fusible chain* is a maximal linear run of non-blocking operator
services the executor may host in a single process (see
:class:`repro.streams.fused.FusedOperator`) without changing the flow's
observable behaviour.  Two adjacent services ``a -> b`` link into the
same chain only when the hop is private to them:

- both are operator services of a non-blocking kind (filter, transform,
  validate, virtual-property, cull-time, cull-space);
- neither carries a ``shard`` fan-out directive (a sharded service runs
  as N replica processes — there is no single process to fuse into, and
  none of the non-blocking kinds shard anyway);
- ``a`` has exactly one outgoing channel (to ``b``) — no cross-cut
  subscriber taps the intermediate stream, so eliding the hop is
  unobservable;
- ``b`` has exactly one incoming channel (from ``a``, on port 0) — every
  tuple entering ``b`` really did traverse ``a`` first.

The chain *head* may be fed by anything (a source, a blocking operator,
even several channels fanning in) and the *tail* may fan out to any
consumers — only the interior hops collapse.  Blocking operators,
triggers, sinks, and sources never join a chain.

Every deployment fuses: the planner derives the chains, unless a DSN
program pins them explicitly with ``fuse "a" -> "b";`` clauses, which
:func:`chains_for` validates against the same link rules.
"""

from __future__ import annotations

from repro.dsn.ast import DsnProgram, ServiceRole
from repro.errors import DsnError

#: Operator kinds eligible for fusion — exactly the paper's non-blocking
#: set.  Blocking kinds keep their own process (they need flush timers
#: and checkpoints); triggers are control-plane and emit no data.
FUSIBLE_KINDS = frozenset({
    "filter",
    "transform",
    "validate",
    "virtual-property",
    "cull-time",
    "cull-space",
})


def _fusible_services(program: DsnProgram) -> "set[str]":
    sharded = {shard.service for shard in program.shards if shard.count > 1}
    return {
        service.name
        for service in program.services
        if service.role is ServiceRole.OPERATOR
        and service.kind in FUSIBLE_KINDS
        and service.name not in sharded
    }


def _links(program: DsnProgram) -> "dict[str, str]":
    """``a -> b`` pairs whose hop may be elided (see module docstring)."""
    fusible = _fusible_services(program)
    out_degree: "dict[str, int]" = {}
    in_degree: "dict[str, int]" = {}
    for channel in program.channels:
        out_degree[channel.source] = out_degree.get(channel.source, 0) + 1
        in_degree[channel.target] = in_degree.get(channel.target, 0) + 1
    next_of: "dict[str, str]" = {}
    for channel in program.channels:
        if (
            channel.source in fusible
            and channel.target in fusible
            and channel.port == 0
            and out_degree[channel.source] == 1
            and in_degree[channel.target] == 1
        ):
            next_of[channel.source] = channel.target
    return next_of


def plan_fusion(program: DsnProgram) -> "list[tuple[str, ...]]":
    """Maximal fusible chains (length >= 2), in service declaration order.

    Every service appears in at most one chain; a validated program's
    dataflow is acyclic, so following the link relation terminates.
    """
    next_of = _links(program)
    prev_of = {target: source for source, target in next_of.items()}
    chains: "list[tuple[str, ...]]" = []
    for service in program.services:
        name = service.name
        if name in prev_of or name not in next_of:
            continue  # not a chain head (mid-chain, tail, or unlinked)
        chain = [name]
        while chain[-1] in next_of:
            chain.append(next_of[chain[-1]])
        chains.append(tuple(chain))
    return chains


def validate_chains(
    program: DsnProgram, chains: "list[tuple[str, ...]]"
) -> None:
    """Check explicit ``fuse`` hints against the planner's link rules.

    Raises :class:`repro.errors.DsnError` on a chain the fused runtime
    could not host faithfully (a blocking member, a tapped interior hop,
    overlapping chains, ...).
    """
    next_of = _links(program)
    seen: "set[str]" = set()
    for chain in chains:
        if len(chain) < 2:
            raise DsnError(
                f"fuse hint {list(chain)!r} needs at least 2 services"
            )
        for name in chain:
            if name in seen:
                raise DsnError(
                    f"service {name!r} appears in more than one fuse hint"
                )
            seen.add(name)
        for source, target in zip(chain, chain[1:]):
            if next_of.get(source) != target:
                raise DsnError(
                    f"fuse hint {list(chain)!r}: {source!r} -> {target!r} "
                    "is not a fusible hop (members must be unsharded "
                    "non-blocking operators on a private single-in/"
                    "single-out channel)"
                )


def chains_for(program: DsnProgram) -> "list[tuple[str, ...]]":
    """The chains a deployment fuses.

    Explicit ``fuse`` clauses in the program pin the plan (validated
    against the link rules); otherwise the planner derives maximal
    chains.
    """
    declared = [tuple(hint.members) for hint in program.fuses]
    if declared:
        validate_chains(program, declared)
        return declared
    return plan_fusion(program)
