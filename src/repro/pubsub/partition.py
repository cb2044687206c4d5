"""Key-hash partitioning router for sharded subscribers.

When a blocking operator is deployed as N shards, its source-side input
is no longer one subscription but N — one per shard process, each on its
own node.  A :class:`ShardRouter` stands in the broker's routing tables
where the single subscription would have been and resolves, per tuple,
*which* member subscription receives it: the one whose shard owns the
tuple's key under :func:`repro.streams.shard.partition_index`.

The router is routing-table furniture, not a subscription: it has no
delivery counters of its own (the members keep theirs, so pause/resume
and dead-letter accounting are unchanged), and the broker treats a
resolved member exactly like any directly-routed subscription.
"""

from __future__ import annotations

from typing import Sequence

from repro.pubsub.subscription import Subscription
from repro.streams.shard import shard_index, split_by_shard
from repro.streams.tuple import SensorTuple, TupleBatch


class ShardRouter:
    """Routes each tuple of a stream to one of N member subscriptions.

    ``assignment`` (optional) is the elastic overlay shared with the
    runtime's ShardGroup: when present it is consulted per key ahead of
    the hash default, so a rebalancer's migrations and hot-key splits
    re-route broker deliveries and operator forwarding identically.
    """

    __slots__ = ("members", "keys", "assignment")

    def __init__(
        self,
        members: "Sequence[Subscription]",
        keys: "Sequence[str]",
        assignment=None,
    ) -> None:
        self.members: list[Subscription] = list(members)
        self.keys = tuple(keys)
        self.assignment = assignment
        for member in self.members:
            member.router = self

    @property
    def filter(self):
        """Members share one filter; expose it for route (re)building."""
        return self.members[0].filter

    @property
    def batch(self):
        """Members share one batching policy, as they share the filter."""
        return self.members[0].batch

    def member_for(self, tuple_: SensorTuple) -> Subscription:
        return self.members[
            shard_index(tuple_, self.keys, len(self.members), self.assignment)
        ]

    def split_batch(
        self, batch: TupleBatch
    ) -> "list[tuple[Subscription, TupleBatch]]":
        """Partition a batch into per-member sub-batches (arrival order
        inside each, members in shard order)."""
        members = self.members
        return [
            (members[index], batch.with_tuples(bucket))
            for index, bucket in split_by_shard(
                batch, self.keys, len(members), self.assignment)
        ]
