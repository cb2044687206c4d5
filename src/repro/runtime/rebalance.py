"""Elastic sharding: the load-feedback rebalance control loop.

Key-hashed shards scale near-linearly on uniform keys but collapse to
~1.25x when one hot key pins 80% of the traffic (measured once, recorded
in ``benchmarks/history/BENCH_5.json``) — the paper's SCN executor
promises to "migrate assignments as load changes", and this is that
loop, in the monitor → policy → executor shape (DESIGN.md §13):

- :class:`ShardLoadMonitor` samples per-shard input counters over a
  sliding window of epochs;
- :class:`RebalancePolicy` is a *pure* decision function over those
  samples: it detects skew via a configurable imbalance ratio, requires
  the skew to persist (**hysteresis**) before acting, and enforces a
  **cooldown** after every action so the loop can never flap;
- :class:`RebalanceExecutor` actuates a decision at the next epoch
  boundary — the punctuation barrier: the donor has flushed through T,
  nothing for T+1 has been emitted, so flipping the shared
  :class:`~repro.streams.shard.ShardAssignment`, extracting the key's
  window slice from the donor, adopting it on the recipient, and
  checkpointing both is atomic with respect to envelopes.  The
  :class:`~repro.streams.shard.ShardMergeOperator` sees the same epochs
  with the same entries, so its renumbering is unchanged.

For a single hot key, migration cannot help (the key is indivisible by
hashing) — the executor instead **splits** it: the assignment routes the
key round-robin across replica shards, each replica emits partial
accumulators with its flush entries, and the merge folds the partials
back into the one tuple the unsharded operator would have emitted.
Only operators whose spec declares ``combine_safe()`` may be split
(grouped aggregations fold; joins do not — pair completeness breaks when
one side's key is sprayed).

Everything here is driven by the deterministic virtual clock: same seed,
same decisions, same migration event log, byte-identical output.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro.errors import StreamLoaderError

#: Handoffs are scheduled this far after an epoch boundary so they run
#: after the boundary's flush event *and* its same-time envelope
#: deliveries, regardless of heap insertion order.
BOUNDARY_EPSILON = 1e-6


@dataclass(frozen=True)
class RebalanceConfig:
    """Knobs for the control loop (CLI: ``--rebalance``)."""

    #: max/mean shard load that counts as skewed (1.0 = balanced).
    imbalance_ratio: float = 1.5
    #: consecutive skewed epochs required before acting.
    hysteresis: int = 2
    #: epochs to stay quiet after an action.
    cooldown_epochs: int = 4
    #: sliding window of epoch samples the loads are summed over.
    window_epochs: int = 4
    #: allow hot-key splitting (CLI: ``--split-hot-keys``).
    split_hot_keys: bool = False
    #: replicas per split key; 0 means every shard.
    split_replicas: int = 0


@dataclass(frozen=True)
class RebalanceDecision:
    """One action the policy asks the executor to perform."""

    kind: str  # "migrate" | "split"
    values: tuple
    donor: int
    recipient: "int | None" = None
    replicas: tuple[int, ...] = ()
    reason: str = ""


class ShardLoadMonitor:
    """Sliding-epoch view of per-shard load for one shard group.

    Each :meth:`sample` records the delta of every member's ``tuples_in``
    counter since the previous sample (one *epoch* of load).  The policy
    reads :meth:`epoch_loads` — the per-shard sums over the last
    ``window_epochs`` samples — so a single noisy epoch cannot trigger a
    move on its own.  Tuple deltas, not flush entries, are the signal:
    entries count *groups*, which stay balanced under a single hot key.
    """

    def __init__(self, group, window_epochs: int = 4,
                 lag_provider=None) -> None:
        if window_epochs < 1:
            raise StreamLoaderError(
                f"load window must cover at least one epoch: {window_epochs}"
            )
        self.group = group
        self.window: "deque[list[int]]" = deque(maxlen=window_epochs)
        self._last_tuples = [0] * len(group.members)
        #: Optional callable returning per-member watermark lag (seconds),
        #: wired by the executor when the latency plane is installed.  A
        #: lagging shard is preferred as donor on load ties — it is the
        #: one actually holding the flow's watermark back.
        self.lag_provider = lag_provider

    def sample(self) -> list[int]:
        """Record one epoch of per-shard input-tuple deltas."""
        loads = []
        for index, member in enumerate(self.group.members):
            total = member.operator.stats.tuples_in
            loads.append(total - self._last_tuples[index])
            self._last_tuples[index] = total
        self.window.append(loads)
        return loads

    def epoch_loads(self) -> list[int]:
        """Per-shard load summed over the sliding window."""
        count = len(self.group.members)
        sums = [0] * count
        for epoch in self.window:
            for index, load in enumerate(epoch):
                sums[index] += load
        return sums

    def shard_lags(self) -> list[float]:
        """Per-shard watermark lag (all zeros without a provider)."""
        count = len(self.group.members)
        if self.lag_provider is None:
            return [0.0] * count
        lags = list(self.lag_provider())
        if len(lags) != count:
            raise StreamLoaderError(
                f"lag provider returned {len(lags)} values for "
                f"{count} shards"
            )
        return [float(lag) for lag in lags]

    def hot_keys(self, shard: int) -> "list[tuple[tuple, int]]":
        """A shard's key loads, heaviest first (deterministic ties)."""
        loads = self.group.members[shard].operator.key_loads
        return sorted(loads.items(), key=lambda item: (-item[1], repr(item[0])))

    def reset_key_loads(self) -> None:
        """Forget per-key history (after an action changes routing)."""
        for member in self.group.members:
            member.operator.key_loads.clear()


class RebalancePolicy:
    """Pure skew detector: loads in, at most one decision out.

    State is two small counters (skew streak, cooldown) so unit tests can
    drive it with synthetic load vectors.  Guarantees:

    - **hysteresis**: borderline skew that flickers above/below the ratio
      never acts — the streak resets on every balanced observation;
    - **cooldown**: after a decision, ``cooldown_epochs`` observations
      are ignored, bounding action frequency;
    - a persistent step-change produces exactly one decision, because the
      action itself rebalances the loads and the streak restarts.
    """

    def __init__(self, config: "RebalanceConfig | None" = None) -> None:
        self.config = config or RebalanceConfig()
        self._streak = 0
        self._cooldown = 0

    def observe(
        self,
        loads: "list[int] | list[float]",
        donor: int,
        hot_keys: "list[tuple[tuple, int]]",
        combine_safe: bool = False,
        already_split: "set[tuple] | frozenset" = frozenset(),
    ) -> "RebalanceDecision | None":
        """One epoch's verdict.

        ``loads`` are the windowed per-shard loads, ``donor`` the shard
        the caller picked to shed load (the heaviest, see
        :meth:`ShardRebalancer.tick`) and ``hot_keys`` that shard's
        per-key loads, heaviest first (from
        :meth:`ShardLoadMonitor.hot_keys`).  The decision names the same
        donor the keys were read from.  Returns None or one decision.
        """
        config = self.config
        if self._cooldown > 0:
            self._cooldown -= 1
            return None
        total = sum(loads)
        if total <= 0 or len(loads) < 2:
            self._streak = 0
            return None
        mean = total / len(loads)
        if loads[donor] / mean < config.imbalance_ratio:
            self._streak = 0
            return None
        self._streak += 1
        if self._streak < config.hysteresis:
            return None
        recipient = min(range(len(loads)), key=lambda i: (loads[i], i))
        decision = self._decide(
            loads, donor, recipient, mean, hot_keys, combine_safe,
            already_split,
        )
        if decision is not None:
            self._streak = 0
            self._cooldown = config.cooldown_epochs
        return decision

    def _decide(
        self, loads, donor, recipient, mean, hot_keys, combine_safe,
        already_split,
    ) -> "RebalanceDecision | None":
        candidates = [
            (values, load) for values, load in hot_keys
            if values not in already_split
        ]
        if not candidates:
            return None
        values, key_load = candidates[0]
        donor_load = loads[donor]
        # Moving the key helps only if the donor actually gets lighter
        # than the recipient gets heavier; a key that *is* the skew
        # (most of the donor's load) just moves the hot spot.
        migration_helps = loads[recipient] + key_load < donor_load
        if migration_helps and donor_load - key_load >= mean * 0.5:
            return RebalanceDecision(
                kind="migrate", values=values, donor=donor,
                recipient=recipient,
                reason=(
                    f"imbalance {donor_load / mean:.2f} >= "
                    f"{self.config.imbalance_ratio}: move {key_load} of "
                    f"{donor_load} to shard {recipient}"
                ),
            )
        if combine_safe and self.config.split_hot_keys:
            count = len(loads)
            replicas = self.config.split_replicas or count
            replica_ids = tuple(range(min(replicas, count)))
            return RebalanceDecision(
                kind="split", values=values, donor=donor,
                replicas=replica_ids,
                reason=(
                    f"hot key carries {key_load} of the donor's "
                    f"{donor_load}: spray across {len(replica_ids)} shards"
                ),
            )
        if migration_helps:
            return RebalanceDecision(
                kind="migrate", values=values, donor=donor,
                recipient=recipient,
                reason=(
                    f"imbalance {donor_load / mean:.2f}: move {key_load} "
                    f"to shard {recipient} (split unavailable)"
                ),
            )
        return None


class RebalanceExecutor:
    """Actuates decisions at epoch boundaries (the punctuation barrier).

    The actual handoff (:meth:`migrate_now`) runs ``BOUNDARY_EPSILON``
    after a flush boundary, so within one virtual instant the donor has
    already emitted its epoch-T envelope and no T+1 state exists in
    flight.  Handoff order matters for crash safety:

    1. flip the shared assignment (new tuples route to the recipient);
    2. disown the key on the donor (stragglers re-route, never cache);
    3. extract the key's window slice from the donor;
    4. adopt it on the recipient;
    5. checkpoint donor then recipient, so any later recovery replays
       a post-migration world (the donor's snapshot carries the
       disowned-set, the recipient's the adopted state).

    If either node is down at the boundary the action aborts (recorded as
    ``aborted``) — node-death recovery owns that window, and the
    policy will simply decide again after its cooldown.
    """

    def __init__(self, group, assignment, netsim, service: str,
                 interval: float, log=None) -> None:
        self.group = group
        self.assignment = assignment
        self.netsim = netsim
        self.service = service
        self.interval = interval
        #: The monitor's ``log``: each action becomes one record.
        self.log = log
        #: keys already split (never split or migrate twice).
        self.split_keys: set[tuple] = set()
        self.migrations_done = 0

    # -- scheduling -----------------------------------------------------------

    def next_boundary(self, now: float) -> float:
        """The next flush-epoch boundary strictly after ``now``."""
        return (math.floor(now / self.interval) + 1) * self.interval

    def schedule(self, decision: RebalanceDecision) -> float:
        """Queue a decision for the next epoch boundary; returns when."""
        boundary = self.next_boundary(self.netsim.clock.now)
        at = boundary + BOUNDARY_EPSILON
        if decision.kind == "split":
            self.netsim.clock.schedule_at(
                at, lambda: self.split_now(
                    decision.values, decision.replicas, decision.reason
                )
            )
        else:
            self.netsim.clock.schedule_at(
                at, lambda: self.migrate_now(
                    decision.values, decision.donor, decision.recipient,
                    decision.reason,
                )
            )
        return at

    # -- actuation ------------------------------------------------------------

    def _record(self, key: tuple, kind: str, from_shard: int,
                to_shards, reason: str) -> None:
        if self.log is not None:
            targets = ",".join(str(shard) for shard in to_shards)
            self.log(
                self.service, f"key-{kind}",
                f"{key!r}: shard {from_shard} -> [{targets}] ({reason})",
                key=repr(key), from_shard=from_shard,
                to_shards=tuple(to_shards), reason=reason,
            )

    def _node_up(self, process) -> bool:
        node = self.netsim.topology.node(process.node_id)
        return node is not None and node.up

    def migrate_now(self, values, donor: int, recipient: int,
                    reason: str = "") -> bool:
        """Perform one key handoff now (call only at a boundary)."""
        key = tuple(values)
        if key in self.split_keys:
            return False
        members = self.group.members
        donor_proc = members[donor]
        recipient_proc = members[recipient]
        if not (self._node_up(donor_proc) and self._node_up(recipient_proc)):
            self._record(key, "aborted", donor, (recipient,),
                         f"{reason}; node down")
            return False
        self.assignment.migrate(key, recipient)
        donor_adapter = donor_proc.operator
        recipient_adapter = recipient_proc.operator
        donor_adapter.disown(key)
        state = donor_adapter.extract_partition(key, self.group.keys_by_port)
        recipient_adapter.adopt_partition(state)
        # The key may be coming home: clear any stale disowned marker or
        # the recipient would bounce its own tuples back out forever.
        recipient_adapter.reclaim(key)
        donor_proc.checkpoint_now()
        recipient_proc.checkpoint_now()
        self.migrations_done += 1
        self._record(key, "migrate", donor, (recipient,), reason)
        return True

    def split_now(self, values, replicas, reason: str = "") -> bool:
        """Split one hot key across replica shards now.

        The key's current owner keeps its cached slice (it is one of the
        replicas); from the next tuple on, arrivals round-robin and every
        replica's flush entry for the key carries partial accumulators
        for the merge's combine fold.
        """
        key = tuple(values)
        if key in self.split_keys:
            return False
        replicas = tuple(replicas) or tuple(range(len(self.group.members)))
        members = self.group.members
        owner = self.assignment.owner_of(key)
        if not all(self._node_up(members[index]) for index in replicas):
            self._record(key, "aborted", owner if owner is not None else -1,
                         replicas, f"{reason}; node down")
            return False
        self.assignment.split(key, replicas)
        order_key = str(key[0]) if len(key) == 1 else str(key)
        for index in replicas:
            members[index].operator.mark_split(order_key)
        if owner is not None and owner not in replicas:
            # The old owner drains its slice with partial entries too.
            members[owner].operator.mark_split(order_key)
        for index in sorted(set(replicas) | ({owner} - {None})):
            members[index].checkpoint_now()
        self.split_keys.add(key)
        self._record(key, "split", owner if owner is not None else -1,
                     replicas, reason)
        return True


class ShardRebalancer:
    """One shard group's control loop: monitor → policy → executor.

    Ticks on the virtual clock at the operator's flush interval, offset
    by half a phase so sampling never shares a timestamp with a flush.
    """

    def __init__(self, group, assignment, netsim, service: str,
                 interval: float, config: "RebalanceConfig | None" = None,
                 log=None, combine_safe: bool = False) -> None:
        self.config = config or RebalanceConfig()
        self.group = group
        self.combine_safe = combine_safe
        self.load_monitor = ShardLoadMonitor(
            group, window_epochs=self.config.window_epochs
        )
        self.policy = RebalancePolicy(self.config)
        self.executor = RebalanceExecutor(
            group, assignment, netsim, service, interval, log=log,
        )
        self.netsim = netsim
        self.interval = interval
        self._cancel = None

    def start(self) -> None:
        if self._cancel is None:
            self._cancel = self.netsim.clock.schedule_periodic(
                self.interval, self.tick, start_delay=self.interval * 0.5
            )

    def stop(self) -> None:
        if self._cancel is not None:
            self._cancel()
            self._cancel = None

    def tick(self) -> None:
        self.load_monitor.sample()
        loads = self.load_monitor.epoch_loads()
        if not loads:
            return
        # Watermark lag breaks load ties: with the latency plane
        # installed, the shard holding the flow's watermark back donates
        # first.  Without it every lag is 0.0 and the choice is unchanged.
        lags = self.load_monitor.shard_lags()
        donor = max(range(len(loads)), key=lambda i: (loads[i], lags[i], -i))
        decision = self.policy.observe(
            loads,
            donor,
            self.load_monitor.hot_keys(donor),
            combine_safe=self.combine_safe,
            already_split=self.executor.split_keys,
        )
        if decision is not None:
            self.executor.schedule(decision)
            self.load_monitor.reset_key_loads()
