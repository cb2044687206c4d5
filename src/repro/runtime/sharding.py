"""Shard groups: the runtime view of one sharded blocking operator.

A :class:`ShardGroup` bundles the N member :class:`OperatorProcess`es a
conceptual blocking node was split into, the key attributes that drive
partitioning (per input port — a join partitions port 0 on its left key
and port 1 on its right key), and the downstream merge process.  Upstream
operator processes route to the *group*: ``Route.target`` may be a
ShardGroup, and the forwarding layer resolves the owning member per tuple
via the same :func:`~repro.streams.shard.partition_index` the broker-side
:class:`~repro.pubsub.partition.ShardRouter` uses — one partitioner
contract everywhere, so a key always lands on the same shard no matter
which path carried it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.streams.shard import ShardAssignment, shard_index, split_by_shard
from repro.streams.tuple import SensorTuple, TupleBatch

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.process import OperatorProcess


@dataclass
class ShardGroup:
    """The deployed shards (plus merge stage) of one conceptual service."""

    service: str
    #: Member processes, index == shard index.
    members: "list[OperatorProcess]" = field(default_factory=list)
    #: Partitioning key attributes per input port; a port beyond the
    #: tuple's length uses the last entry (single-port operators).
    keys_by_port: tuple[tuple[str, ...], ...] = ((),)
    merge: "OperatorProcess | None" = None
    #: Elastic routing overlay shared with the broker-side ShardRouter;
    #: None on static deployments (the pure-hash fast path).
    assignment: "ShardAssignment | None" = None

    def keys_for_port(self, port: int) -> tuple[str, ...]:
        return self.keys_by_port[min(port, len(self.keys_by_port) - 1)]

    def member_for(self, tuple_: SensorTuple, port: int = 0) -> "OperatorProcess":
        return self.members[
            shard_index(tuple_, self.keys_for_port(port), len(self.members),
                        self.assignment)
        ]

    def split(
        self, tuples: "Sequence[SensorTuple]", port: int = 0
    ) -> "list[tuple[OperatorProcess, TupleBatch]]":
        """Bucket a run of tuples into per-member batches, order-preserving."""
        members = self.members
        return [
            (members[index], TupleBatch.of(bucket))
            for index, bucket in split_by_shard(
                tuples, self.keys_for_port(port), len(members),
                self.assignment)
        ]

    def processes(self) -> "list[OperatorProcess]":
        out = list(self.members)
        if self.merge is not None:
            out.append(self.merge)
        return out
