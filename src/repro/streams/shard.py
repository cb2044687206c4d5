"""Sharding plane for blocking operators: partitioner, adapter, merge.

The blocking operators (Aggregation, Join) cache every tuple of their
window on one operator process, which caps their throughput at one node's
capacity.  Sharding splits one *conceptual* blocking node into N replica
processes, each holding the slice of the key space a deterministic hash
partitioner assigns to it, plus one downstream **merge** stage that
re-establishes the unsharded flush order before the consumer.  The
conceptual dataflow the user designs is untouched — only the deployed
DSN/SCN plan fans out (DESIGN.md §12).

Three pieces live here:

- :func:`partition_index` — the partitioner contract.  CRC32 over the
  ``repr`` of the key values (numbers in one canonical form, so ``==``
  keys share a shard), modulo the shard count: deterministic
  across processes and runs (``hash()`` is salted per interpreter via
  ``PYTHONHASHSEED``, so it is exactly what this must *not* use).
- :class:`ShardedOperatorAdapter` — wraps one shard's inner operator.
  Tuples pass straight through to the inner operator; every timer firing
  is converted into exactly one **envelope** tuple carrying the flush's
  emissions tagged with per-entry order keys.  Empty flushes still emit
  an (empty) envelope: the envelope doubles as the shard's punctuation,
  telling the merge "shard k has flushed through virtual time T" —
  without it an empty window would be indistinguishable from a slow
  shard and the merge could never close an epoch.
- :class:`ShardMergeOperator` — non-blocking but stateful: buffers
  envelopes per flush epoch, closes an epoch once every shard's
  punctuation has passed it, re-sorts the union of entries by order key
  and renumbers ``seq`` exactly as the unsharded operator would have.

PR 6 adds the *elastic* overlay (DESIGN.md §13): a mutable
:class:`ShardAssignment` consulted ahead of the hash partitioner so a
rebalancer can migrate individual keys between shards or split one hot
key round-robin across replica shards.  Split replicas emit **partial**
entries (the raw ``[count, sum, min, max]`` accumulators next to the
replica-local tuple); the merge folds runs of equal order keys back into
the single tuple the unsharded operator would have emitted, before
sorting and renumbering — so nothing downstream can tell a split key
from a plain one.
"""

from __future__ import annotations

import zlib
from dataclasses import replace
from numbers import Integral
from typing import Sequence

from repro.errors import CheckpointError, StreamLoaderError
from repro.streams.base import Operator
from repro.streams.join import JoinOperator
from repro.streams.tuple import SensorTuple
from repro.stt.event import SttStamp
from repro.stt.spatial import Box, Point

#: Envelope payload keys (the wire format between shard and merge).
SHARD_KEY = "__shard__"
EPOCH_KEY = "__epoch__"
ENTRIES_KEY = "__entries__"

#: Histogram buckets for the flush skew ratio (max/mean entries per
#: shard); 1.0 is a perfectly balanced epoch, N is total collapse onto
#: one of N shards.
SKEW_BUCKETS = (1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 8.0)


def _canonical(value: object) -> object:
    """One form per ``==`` class of numbers: ``True``, ``1.0`` -> ``1``,
    ``-0.0`` -> ``0``; non-integral floats (NaN, ±inf) stay floats."""
    if isinstance(value, float):
        return int(value) if value.is_integer() else float(value)
    return int(value) if isinstance(value, Integral) else value


def partition_index(values: "tuple | Sequence", count: int) -> int:
    """Deterministic shard index for a key-value tuple.

    CRC32 of the canonical key's ``repr`` mod ``count`` — stable across
    interpreter restarts and machines (unlike builtin ``hash``), cheap,
    and well-mixed for the string/number keys group-by and equi-join use.
    Keys that are ``==`` share an index, as they share a group or a join
    bucket unsharded.
    """
    key = tuple(values)
    for value in key:  # str, int and None already are canonical
        kind = type(value)
        if kind is not str and kind is not int and value is not None:
            key = tuple(map(_canonical, key))
            break
    return zlib.crc32(repr(key).encode("utf-8")) % count


def shard_index(tuple_: SensorTuple, keys: "Sequence[str]", count: int,
                assignment: "ShardAssignment | None" = None) -> int:
    """The shard owning ``tuple_``: the elastic overlay's answer for its
    key values when there is one, else their :func:`partition_index`."""
    values = tuple(tuple_.get(key) for key in keys)
    if assignment is not None:
        return assignment.index_for(values)
    return partition_index(values, count)


def split_by_shard(
    tuples: "Sequence[SensorTuple]", keys: "Sequence[str]", count: int,
    assignment: "ShardAssignment | None" = None,
) -> "list[tuple[int, list[SensorTuple]]]":
    """Bucket a run of tuples by :func:`shard_index`: arrival order inside
    each bucket, buckets in shard order — both deterministic, so batched
    delivery to a sharded consumer stays parity-equal to tuple-at-a-time."""
    buckets: dict[int, list[SensorTuple]] = {}
    for tuple_ in tuples:
        # shard_index, inlined: this loop runs per tuple of every batch.
        values = tuple(tuple_.get(key) for key in keys)
        index = (assignment.index_for(values) if assignment is not None
                 else partition_index(values, count))
        buckets.setdefault(index, []).append(tuple_)
    return sorted(buckets.items())


class ShardAssignment:
    """Mutable routing overlay consulted ahead of :func:`partition_index`.

    The static partitioner is a pure function of the key; elasticity needs
    per-key exceptions that a rebalancer can install at runtime without
    re-deploying.  Resolution order in :meth:`index_for`:

    1. **splits** — the key is replicated round-robin across its replica
       shards (a per-key counter, deterministic: the n-th tuple of a split
       key always lands on the same replica for the same history);
    2. **overrides** — the key was migrated to an explicit shard;
    3. the CRC32 hash default.

    One instance is shared by every router/forwarder of a shard group, so
    a single ``migrate()`` re-routes the broker fan-out and the
    operator-to-operator forwarding path at once.  ``version`` counts
    mutations (for logs and tests); no wall-clock anywhere.
    """

    __slots__ = ("count", "overrides", "splits", "version", "_rr")

    def __init__(self, count: int) -> None:
        if count < 1:
            raise StreamLoaderError(f"shard count must be positive: {count}")
        self.count = count
        #: key values tuple -> explicit shard index (migrated keys).
        self.overrides: dict[tuple, int] = {}
        #: key values tuple -> replica shard indexes (split keys).
        self.splits: dict[tuple, tuple[int, ...]] = {}
        self.version = 0
        self._rr: dict[tuple, int] = {}

    def index_for(self, values: "tuple | Sequence") -> int:
        key = tuple(values)
        replicas = self.splits.get(key)
        if replicas is not None:
            turn = self._rr.get(key, 0)
            self._rr[key] = turn + 1
            return replicas[turn % len(replicas)]
        index = self.overrides.get(key)
        if index is not None:
            return index
        return partition_index(key, self.count)

    def migrate(self, values: "tuple | Sequence", recipient: int) -> None:
        """Pin ``values`` to ``recipient`` (undoes any split)."""
        key = tuple(values)
        self.splits.pop(key, None)
        self._rr.pop(key, None)
        self.overrides[key] = recipient
        self.version += 1

    def split(self, values: "tuple | Sequence",
              replicas: "Sequence[int]") -> None:
        """Spray ``values`` round-robin across ``replicas``."""
        key = tuple(values)
        if not replicas:
            raise StreamLoaderError(f"split of {key!r} needs replicas")
        self.overrides.pop(key, None)
        self.splits[key] = tuple(replicas)
        self.version += 1

    def owner_of(self, values: "tuple | Sequence") -> "int | None":
        """Current single owner, or None when the key is split."""
        key = tuple(values)
        if key in self.splits:
            return None
        return self.overrides.get(key, partition_index(key, self.count))

    def describe(self) -> str:
        return (
            f"assignment v{self.version}: {len(self.overrides)} migrated, "
            f"{len(self.splits)} split of {self.count} shards"
        )


def order_key_for_pair(lt: SensorTuple, rt: SensorTuple) -> tuple:
    """Merge order key for one join output pair.

    Unsharded join flushes are left-major in *arrival* order; arrival
    order equals ``(stamp.time, source, seq)`` order whenever upstream
    delivery is time-monotone (true on the zero-latency parity
    topologies; the known limits are documented in DESIGN.md §12).
    """
    return (
        (lt.stamp.time, lt.source, lt.seq),
        (rt.stamp.time, rt.source, rt.seq),
    )


class ShardedOperatorAdapter(Operator):
    """One shard of a blocking operator, speaking the envelope protocol.

    Wraps the shard's ``inner`` operator (a fresh instance built from the
    same spec as the conceptual node).  Tuple and batch input delegate
    straight to the inner operator; the timer hook converts each flush
    into one envelope for the merge stage.  ``stats`` and ``lineage``
    are *delegating properties* so runtime bookkeeping (and checkpoint
    restore, which swaps the inner stats object) sees one shared truth.
    """

    def __init__(self, inner: Operator, shard_index: int, shard_count: int) -> None:
        if not inner.is_blocking:
            raise StreamLoaderError(
                f"{inner.name}: only blocking operators can be sharded"
            )
        # Set before super().__init__ — the base class assigns
        # self.stats/self.lineage, which the delegating properties below
        # forward to the inner operator.
        self.inner = inner
        super().__init__(name=f"{inner.name}[{shard_index}]")
        self.shard_index = shard_index
        self.shard_count = shard_count
        self.interval = inner.interval
        self.input_ports = inner.input_ports
        self.cost_per_tuple = inner.cost_per_tuple
        self.span_name = inner.span_name
        self._envelopes = 0
        #: Order keys (str) whose entries must carry partial accumulators
        #: for the merge's combine stage (hot-key splitting).
        self.split_keys: set[str] = set()
        #: Key values tuples this shard no longer owns (migrated away);
        #: stragglers are re-routed via ``_reroute`` instead of cached.
        self.disowned: set[tuple] = set()
        #: Per-key tuple counts, maintained only on the elastic input
        #: path — the rebalancer's hot-key signal.
        self.key_loads: dict[tuple, int] = {}
        self.elastic_keys: "tuple[tuple[str, ...], ...] | None" = None
        self._reroute = None
        # Instance-bound fast path: shadows the delegating methods below,
        # saving one call frame per tuple on the hottest path (the inner
        # operator does its own stats/lineage bookkeeping, and ``inner``
        # is never swapped — restore mutates it in place).
        self.on_tuple = inner.on_tuple
        self.on_batch = inner.on_batch

    @property
    def stats(self):
        return self.inner.stats

    @stats.setter
    def stats(self, value) -> None:
        self.inner.stats = value

    @property
    def lineage(self):
        return self.inner.lineage

    @lineage.setter
    def lineage(self, value) -> None:
        self.inner.lineage = value

    def on_tuple(self, tuple_: SensorTuple, port: int = 0) -> list[SensorTuple]:
        return self.inner.on_tuple(tuple_, port)

    def on_batch(self, tuples, port: int = 0) -> list[SensorTuple]:
        return self.inner.on_batch(tuples, port)

    # -- elastic overlay ------------------------------------------------------

    def enable_elastic(self, keys_by_port, reroute=None) -> None:
        """Arm the elastic overlay without leaving the fast path.

        The zero-overhead ``inner.on_tuple`` binding stays in place until
        a key is actually disowned — an idle elastic deployment costs
        exactly what a static one does.  Key loads are not counted per
        tuple either; :meth:`on_timer` harvests them from the inner
        window state at each flush (O(groups), not O(tuples)).
        ``keys_by_port`` mirrors the router's partition keys;
        ``reroute(tuple_, port)`` delivers a straggler of a migrated key
        to its current owner (executor-provided).
        """
        self.elastic_keys = tuple(tuple(keys) for keys in keys_by_port)
        self._reroute = reroute
        self._rebind()

    def _rebind(self) -> None:
        """Pick the tuple path the current overlay state requires: the
        disowned-key filter only while something *is* disowned."""
        if self.disowned and self.elastic_keys is not None:
            self.on_tuple = self._elastic_on_tuple
            self.on_batch = self._elastic_on_batch
        else:
            self.on_tuple = self.inner.on_tuple
            self.on_batch = self.inner.on_batch

    def _key_values(self, tuple_: SensorTuple, port: int) -> tuple:
        keys = self.elastic_keys
        names = keys[port] if port < len(keys) else keys[-1]
        return tuple(tuple_.get(name) for name in names)

    def _elastic_on_tuple(self, tuple_: SensorTuple,
                          port: int = 0) -> list[SensorTuple]:
        values = self._key_values(tuple_, port)
        if values in self.disowned:
            if self._reroute is not None:
                self._reroute(tuple_, port)
            return []
        return self.inner.on_tuple(tuple_, port)

    def _elastic_on_batch(self, tuples, port: int = 0) -> list[SensorTuple]:
        kept = []
        for tuple_ in tuples:
            values = self._key_values(tuple_, port)
            if values in self.disowned:
                if self._reroute is not None:
                    self._reroute(tuple_, port)
                continue
            kept.append(tuple_)
        if not kept:
            return []
        return self.inner.on_batch(kept, port)

    def _harvest_key_loads(self) -> None:
        """Fold the inner window's per-key sizes into ``key_loads``.

        Runs once per flush.  For a tumbling aggregation this sums to
        exactly the per-key tuple counts since the last reset; for
        sliding windows and joins every key is over-counted by the same
        retention factor, which leaves the policy's rankings and ratios
        intact.
        """
        loads = self.key_loads
        inner = self.inner
        groups = getattr(inner, "_groups", None)
        if groups is not None:
            for key, acc in groups.items():
                values = (key,)
                loads[values] = loads.get(values, 0) + len(acc.members)
            return
        if isinstance(inner, JoinOperator):
            keys = self.elastic_keys
            for cache, names in ((inner.left_cache, keys[0]),
                                 (inner.right_cache, keys[-1])):
                name = names[0]
                for tuple_ in cache:
                    values = (tuple_.get(name),)
                    loads[values] = loads.get(values, 0) + 1

    def disown(self, values: "tuple | Sequence") -> None:
        """Mark a migrated-away key: cached state must already be
        extracted; stragglers re-route to the new owner."""
        self.disowned.add(tuple(values))
        self._rebind()

    def reclaim(self, values: "tuple | Sequence") -> None:
        """Clear a disowned marker (the key is coming home); drops back
        to the zero-overhead path once nothing is disowned."""
        self.disowned.discard(tuple(values))
        self._rebind()

    def mark_split(self, order_key: str) -> None:
        """Emit partial accumulators for this order key from now on."""
        self.split_keys.add(order_key)

    def extract_partition(self, values: "tuple | Sequence",
                          keys_by_port) -> dict:
        """Remove and return one key's slice of the inner window state."""
        inner = self.inner
        if isinstance(inner, JoinOperator):
            state = inner.extract_partition(
                keys_by_port[0][0], keys_by_port[-1][0], tuple(values)[0]
            )
            return {"kind": "join", **state}
        return {"kind": "aggregate",
                "tuples": inner.extract_partition(tuple(values)[0])}

    def adopt_partition(self, state: dict) -> None:
        """Fold a donor's extracted key slice into the inner window."""
        inner = self.inner
        if state.get("kind") == "join":
            inner.adopt_partition(state)
        else:
            inner.adopt_partition(state["tuples"])

    def on_timer(self, now: float) -> list[SensorTuple]:
        inner = self.inner
        if self.elastic_keys is not None:
            self._harvest_key_loads()
        pair_log: "list | None" = None
        key_log: "list | None" = None
        partial_log: "dict | None" = None
        if isinstance(inner, JoinOperator):
            pair_log = inner._pair_log = []
        else:
            # Aggregation: the flush logs each group's str(group key), the
            # order key the unsharded flush sorts by.
            key_log = inner._key_log = []
            if self.split_keys:
                partial_log = inner._partial_log = {}
        try:
            emitted = inner.on_timer(now)
        finally:
            if pair_log is not None:
                inner._pair_log = None
            else:
                inner._key_log = inner._partial_log = None
        if pair_log is not None:
            entries = tuple(
                (order_key_for_pair(lt, rt), out)
                for out, (lt, rt) in zip(emitted, pair_log)
            )
        elif partial_log:
            # Split keys ship their raw accumulators so the merge can
            # fold replica partials back into one tuple.
            items: list[tuple] = []
            for okey, t in zip(key_log, emitted):
                partial = partial_log.get(okey)
                if okey in self.split_keys and partial is not None:
                    items.append((okey, t, partial))
                else:
                    items.append((okey, t))
            entries = tuple(items)
        else:
            # Groups are whole on one shard.
            entries = tuple(zip(key_log, emitted))
        envelope = SensorTuple(
            payload={
                SHARD_KEY: self.shard_index,
                EPOCH_KEY: now,
                ENTRIES_KEY: entries,
            },
            stamp=SttStamp(time=now, location=Point(0.0, 0.0)),
            source=f"{inner.name}#shard{self.shard_index}",
            seq=self._envelopes,
        )
        self._envelopes += 1
        return [envelope]

    def reset(self) -> None:
        self.inner.reset()
        self._envelopes = 0
        self.split_keys = set()
        self.disowned = set()
        self.key_loads = {}
        self._rebind()

    def checkpoint(self) -> dict:
        return {
            "stats": self.stats.snapshot(),
            "inner": self.inner.checkpoint(),
            "envelopes": self._envelopes,
            # Elastic overlay state: a restored donor must keep refusing
            # (and re-routing) keys it migrated away, or recovery would
            # re-grow the moved group and the merge would see it twice.
            "disowned": sorted(self.disowned, key=repr),
            "split_keys": sorted(self.split_keys),
            "key_loads": dict(self.key_loads),
        }

    def restore(self, state: dict) -> None:
        if not isinstance(state, dict) or "inner" not in state:
            raise CheckpointError(f"{self.name}: malformed shard checkpoint")
        self.inner.restore(state["inner"])
        self._envelopes = state.get("envelopes", 0)
        self.disowned = {tuple(values) for values in state.get("disowned", ())}
        self.split_keys = set(state.get("split_keys", ()))
        self.key_loads = {
            tuple(k): v for k, v in state.get("key_loads", {}).items()
        }
        if self.disowned and self.elastic_keys is not None:
            # Defensive: purge any disowned slice the snapshot still held
            # (checkpoints taken right after a handoff never do).
            for values in sorted(self.disowned, key=repr):
                self.extract_partition(values, self.elastic_keys)
        self._rebind()

    def describe(self) -> str:
        return (
            f"shard {self.shard_index}/{self.shard_count} of "
            f"{self.inner.describe()}"
        )


def _combine_split_entries(run: "list[tuple]") -> tuple:
    """Fold one order key's partial entries into the oracle tuple.

    ``run`` is every replica's ``(order_key, tuple, partial)`` entry for
    one split key within one epoch, in shard-index order.  The fold
    mirrors ``AggregationOperator._flush`` exactly: summed
    count/sum, min/max of extrema, payload rewritten per aggregation
    function, bounding box union (degenerate boxes collapse to a point),
    and the base tuple taken from the replica holding the key's earliest
    member — whose source/stamp already match the unsharded emission.
    Partial sums fold in shard order, so AVG/SUM equal the unsharded
    float accumulation only when the values are exactly representable
    (the combine-safety caveat documented in DESIGN.md §13).
    """
    base_key, base_tuple, _ = min(run, key=lambda entry: entry[2]["first"])
    folded: dict[str, list] = {}
    for _, _, partial in run:
        for attr, (count, total, low, high) in partial["stats"].items():
            agg = folded.setdefault(attr, [0, 0.0, None, None])
            agg[0] += count
            agg[1] += total
            if low is not None and (agg[2] is None or low < agg[2]):
                agg[2] = low
            if high is not None and (agg[3] is None or high > agg[3]):
                agg[3] = high
    payload = dict(base_tuple.payload)
    for attr, (count, total, low, high) in folded.items():
        for out_key, value in (
            (f"count_{attr}", count),
            (f"avg_{attr}", total / count if count else None),
            (f"sum_{attr}", total if count else None),
            (f"min_{attr}", low),
            (f"max_{attr}", high),
        ):
            if out_key in payload:
                payload[out_key] = value
    boxes = [partial["bbox"] for _, _, partial in run
             if partial["bbox"] is not None]
    stamp = base_tuple.stamp
    if boxes:
        south = min(box[0] for box in boxes)
        west = min(box[1] for box in boxes)
        north = max(box[2] for box in boxes)
        east = max(box[3] for box in boxes)
        if south == north and west == east:
            location = Point(south, west)
        else:
            location = Box(south=south, west=west, north=north, east=east)
        stamp = replace(stamp, location=location)
    return (base_key, replace(base_tuple, payload=payload, stamp=stamp))


def _fold_split_runs(entries: "list[tuple]") -> "list[tuple]":
    """Collapse runs of equal order keys whose entries carry partials."""
    out: list[tuple] = []
    i = 0
    n = len(entries)
    while i < n:
        j = i + 1
        while j < n and entries[j][0] == entries[i][0]:
            j += 1
        run = entries[i:j]
        if j - i > 1 and all(len(entry) == 3 for entry in run):
            out.append(_combine_split_entries(run))
        else:
            out.extend(run)
        i = j
    return out


class ShardMergeOperator(Operator):
    """Re-establishes the unsharded flush order downstream of N shards.

    Non-blocking (it reacts to envelopes, not to a timer) but stateful —
    :attr:`checkpointable` is overridden so the runtime snapshots it.

    An *epoch* is one conceptual flush, identified by its virtual flush
    time.  Epoch T closes once every shard's latest envelope time has
    reached T: per-shard envelope times are strictly monotone, so a dead
    shard's gap closes as soon as its post-recovery punctuation arrives
    (surviving shards are never held up beyond the failed window —
    at-most-once, exactly the PR 1 recovery bound).  Envelopes for
    already-closed epochs (a recovered shard replaying a flush the merge
    has moved past) are dropped, never duplicated.

    Closing an epoch sorts the union of the shards' entries by order key
    and renumbers ``seq`` as the unsharded operator would have:
    aggregation seq is ``firings * 1000 + offset`` (every firing
    produces envelopes, so closed-epoch count ≡ the unsharded
    ``timer_firings``); join seq is the per-flush offset.
    """

    cost_per_tuple = 0.5  # sort + renumber, no predicate work

    def __init__(self, shard_count: int, mode: str, name: str = "") -> None:
        if mode not in ("aggregate", "join"):
            raise StreamLoaderError(f"unknown shard merge mode {mode!r}")
        super().__init__(name or "shard-merge")
        self.shard_count = shard_count
        self.mode = mode
        #: epoch time -> shard index -> entries tuple.
        self._pending: dict[float, dict[int, tuple]] = {}
        #: shard index -> latest envelope (punctuation) time seen.
        self._latest: dict[int, float] = {}
        self._epochs_closed = 0
        self._closed_through = float("-inf")
        self._skew_histogram = None
        self._entry_counters: "list | None" = None

    @property
    def checkpointable(self) -> bool:
        return True

    def bind_obs(self, metrics, service: str) -> None:
        """Cache per-shard instruments from the PR 3 registry."""
        self._skew_histogram = metrics.histogram(
            "shard_flush_skew_ratio",
            "Max/mean entries per shard at epoch close (1.0 = balanced)",
            buckets=SKEW_BUCKETS,
            service=service,
        )
        self._entry_counters = [
            metrics.counter(
                "shard_flush_entries_total",
                "Flush entries contributed by each shard",
                service=service,
                shard=str(index),
            )
            for index in range(self.shard_count)
        ]

    def _process(self, tuple_: SensorTuple, port: int) -> list[SensorTuple]:
        payload = tuple_.payload
        shard = payload[SHARD_KEY]
        epoch = payload[EPOCH_KEY]
        if epoch > self._closed_through:
            self._pending.setdefault(epoch, {})[shard] = payload[ENTRIES_KEY]
        latest = self._latest.get(shard)
        if latest is None or epoch > latest:
            self._latest[shard] = epoch
        return self._close_ready_epochs()

    def _close_ready_epochs(self) -> list[SensorTuple]:
        out: list[SensorTuple] = []
        while self._pending:
            epoch = min(self._pending)
            if len(self._latest) < self.shard_count:
                break
            if any(latest < epoch for latest in self._latest.values()):
                break
            by_shard = self._pending.pop(epoch)
            self._closed_through = epoch
            self._epochs_closed += 1
            self._observe_epoch(by_shard)
            merged: list[tuple] = []
            for shard in sorted(by_shard):
                merged.extend(by_shard[shard])
            # Stable sort: within one order key, shard order survives —
            # the fold below relies on it for deterministic summation.
            merged.sort(key=lambda entry: entry[0])
            if any(len(entry) == 3 for entry in merged):
                merged = _fold_split_runs(merged)
            base = self._epochs_closed * 1000 if self.mode == "aggregate" else 0
            for offset, entry in enumerate(merged):
                out.append(replace(entry[1], seq=base + offset))
        return out

    def _observe_epoch(self, by_shard: dict[int, tuple]) -> None:
        if self._entry_counters is not None:
            for shard, entries in by_shard.items():
                if entries:
                    self._entry_counters[shard].inc(len(entries))
        if self._skew_histogram is not None:
            counts = [len(by_shard.get(k, ())) for k in range(self.shard_count)]
            total = sum(counts)
            if total:
                self._skew_histogram.observe(
                    max(counts) / (total / self.shard_count)
                )

    def reset(self) -> None:
        super().reset()
        self._pending = {}
        self._latest = {}
        self._epochs_closed = 0
        self._closed_through = float("-inf")

    def checkpoint(self) -> dict:
        state = super().checkpoint()
        state["pending"] = {
            epoch: dict(by_shard) for epoch, by_shard in self._pending.items()
        }
        state["latest"] = dict(self._latest)
        state["epochs_closed"] = self._epochs_closed
        state["closed_through"] = self._closed_through
        return state

    def restore(self, state: dict) -> None:
        super().restore(state)
        self._pending = {
            epoch: dict(by_shard)
            for epoch, by_shard in state.get("pending", {}).items()
        }
        self._latest = dict(state.get("latest", {}))
        self._epochs_closed = state.get("epochs_closed", 0)
        self._closed_through = state.get("closed_through", float("-inf"))

    def describe(self) -> str:
        return f"merge of {self.shard_count} {self.mode} shards"
