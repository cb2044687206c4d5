"""Join — s1 ⋈ᵗ_pred s2: windowed two-stream join.

Table 1: *"Every t time intervals, s1 and s2 are joined according to the
join predicate."*

Blocking, two input ports.  Both sides are cached; every ``t`` seconds all
cross pairs satisfying the predicate are emitted and both caches are
drained (tumbling windows).  The predicate addresses the two sides with
qualifiers — by default ``left``/``right`` (``left.city == right.city``).

Merged payloads follow :func:`repro.schema.infer.join_schema`: colliding
attribute names get the qualifier prefix, everything else keeps its name.
The output stamp takes the later of the pair's times at the coarser common
granularities, the pair's bounding location, and the union of themes —
the STT consistency rules for composition.

Flush strategy.  When the predicate's top-level ``and``-chain contains at
least one equi-conjunct between the two sides (``left.a == right.b``), the
flush **hash-partitions** the right window on those attributes and probes
it per left tuple, evaluating the full predicate only on key-matched
candidates — O(|L| + |R| + matches) instead of the O(|L| x |R|) nested
loop.  Candidate pairs still run the complete predicate, so results (and
their order and seq numbers) are identical to the nested loop; the only
observable difference is that pairs pruned by the hash never evaluate, so
predicate *errors* are only counted on candidate pairs.  The nested loop
remains for non-equi predicates, for ``hash_join=False``, and whenever a
window tuple is missing a key attribute or holds a key value outside the
plain scalar types (str/int/float/bool/None) whose hash semantics are
guaranteed to agree with ``==``.
"""

from __future__ import annotations

from repro.errors import DataflowError
from repro.expr.ast import AttributeRef, BinaryOp, Node
from repro.expr.eval import CompiledExpression, compile_expression
from repro.streams.base import BlockingOperator
from repro.streams.tuple import SensorTuple
from repro.streams.windows import TupleCache
from repro.stt.event import SttStamp
from repro.stt.spatial import Box, representative_point


def merge_payloads(
    left: dict, right: dict, left_prefix: str, right_prefix: str
) -> dict:
    """Merge two payloads with collision prefixing (join output rule)."""
    collisions = set(left) & set(right)
    merged: dict[str, object] = {}
    for name, value in left.items():
        merged[f"{left_prefix}_{name}" if name in collisions else name] = value
    for name, value in right.items():
        merged[f"{right_prefix}_{name}" if name in collisions else name] = value
    return merged


class JoinOperator(BlockingOperator):
    """Windowed theta-join of two streams.

    >>> op = JoinOperator(
    ...     interval=60.0,
    ...     predicate="left.station == right.station",
    ... )
    >>> # feed port 0 (left) and port 1 (right), then op.on_timer(now)
    """

    input_ports = 2
    cost_per_tuple = 2.0  # caching + pairwise predicate evaluation

    def __init__(
        self,
        interval: float,
        predicate: "str | CompiledExpression",
        left_prefix: str = "left",
        right_prefix: str = "right",
        name: str = "",
        max_cache: int = 100_000,
        hash_join: bool = True,
    ) -> None:
        super().__init__(interval, name or "join")
        if left_prefix == right_prefix:
            raise DataflowError("join prefixes must differ")
        if isinstance(predicate, str):
            predicate = compile_expression(predicate)
        self.predicate = predicate.prepare()
        self.left_prefix = left_prefix
        self.right_prefix = right_prefix
        self.left_cache = TupleCache(max_tuples=max_cache)
        self.right_cache = TupleCache(max_tuples=max_cache)
        self.hash_join = hash_join
        #: [(left_attr, right_attr)] equi-conjuncts found in the predicate.
        self.equi_keys = self._extract_equi_keys(predicate.root)
        #: When set (to a list) by a sharding adapter, every emitted pair's
        #: source tuples are appended so the merge stage can order pairs
        #: across shards without re-parsing composed ``source`` strings.
        self._pair_log: "list[tuple[SensorTuple, SensorTuple]] | None" = None

    def _extract_equi_keys(self, root: Node) -> "list[tuple[str, str]]":
        """Equality conjuncts ``left.a == right.b`` in the top-level
        and-chain, normalized to (left_attr, right_attr) pairs."""

        def conjuncts(node: Node):
            if isinstance(node, BinaryOp) and node.op == "and":
                yield from conjuncts(node.left)
                yield from conjuncts(node.right)
            else:
                yield node

        pairs: list[tuple[str, str]] = []
        for node in conjuncts(root):
            if not (isinstance(node, BinaryOp) and node.op == "=="):
                continue
            left, right = node.left, node.right
            if not (isinstance(left, AttributeRef) and isinstance(right, AttributeRef)):
                continue
            if (left.qualifier == self.left_prefix
                    and right.qualifier == self.right_prefix):
                pairs.append((left.name, right.name))
            elif (left.qualifier == self.right_prefix
                    and right.qualifier == self.left_prefix):
                pairs.append((right.name, left.name))
        return pairs

    def _process(self, tuple_: SensorTuple, port: int) -> list[SensorTuple]:
        (self.left_cache if port == 0 else self.right_cache).add(tuple_)
        return []

    def _process_batch(self, tuples, port: int) -> list[SensorTuple]:
        (self.left_cache if port == 0 else self.right_cache).extend(tuples)
        return []

    #: Key value types whose hash/equality semantics are guaranteed to
    #: agree with the expression evaluator's ``==`` (numeric cross-type
    #: equality included; NaN keys are safe because candidates re-run the
    #: full predicate, which rejects NaN == NaN).
    _HASHABLE_KEY_TYPES = (str, int, float, bool, type(None))

    def _flush(self, now: float) -> list[SensorTuple]:
        left_window = self.left_cache.drain()
        right_window = self.right_cache.drain()
        if not left_window or not right_window:
            return []
        if self.hash_join and self.equi_keys:
            out = self._hash_flush(left_window, right_window, now)
            if out is not None:
                return out
        return self._nested_loop_flush(left_window, right_window, now)

    def _nested_loop_flush(
        self,
        left_window: list[SensorTuple],
        right_window: list[SensorTuple],
        now: float,
    ) -> list[SensorTuple]:
        """Reference O(|L| x |R|) flush — every pair runs the predicate."""
        out: list[SensorTuple] = []
        seq = 0
        for lt in left_window:
            l_values = lt.values()
            for rt in right_window:
                kwargs = {
                    self.left_prefix: l_values,
                    self.right_prefix: rt.values(),
                }
                try:
                    matched = self.predicate.evaluate_bool(None, **kwargs)
                except Exception:
                    self.stats.errors += 1
                    continue
                if not matched:
                    continue
                out.append(self._merge(lt, rt, now, seq))
                seq += 1
        return out

    def _hash_flush(
        self,
        left_window: list[SensorTuple],
        right_window: list[SensorTuple],
        now: float,
    ) -> "list[SensorTuple] | None":
        """Equi-key hash join; returns None to signal nested-loop fallback.

        The right window is bucketed on its key attributes; each left
        tuple probes its bucket and candidates run the *full* predicate,
        so emitted pairs, their left-major order, and seq numbers are
        exactly the nested loop's.
        """
        left_names = [pair[0] for pair in self.equi_keys]
        right_names = [pair[1] for pair in self.equi_keys]
        scalar = self._HASHABLE_KEY_TYPES

        buckets: dict[tuple, list[tuple[SensorTuple, dict]]] = {}
        for rt in right_window:
            r_values = rt.values()
            key = []
            for name in right_names:
                if name not in r_values:
                    return None  # the evaluator would raise per pair
                value = r_values[name]
                if not isinstance(value, scalar):
                    return None  # no hash==eq guarantee for this type
                key.append(value)
            buckets.setdefault(tuple(key), []).append((rt, r_values))

        out: list[SensorTuple] = []
        seq = 0
        probed: list[tuple] = []
        for lt in left_window:
            l_values = lt.values()
            key = []
            for name in left_names:
                if name not in l_values:
                    return None
                value = l_values[name]
                if not isinstance(value, scalar):
                    return None
                key.append(value)
            probed.append((lt, l_values, tuple(key)))
        for lt, l_values, key in probed:
            for rt, r_values in buckets.get(key, ()):
                kwargs = {
                    self.left_prefix: l_values,
                    self.right_prefix: r_values,
                }
                try:
                    matched = self.predicate.evaluate_bool(None, **kwargs)
                except Exception:
                    self.stats.errors += 1
                    continue
                if not matched:
                    continue
                out.append(self._merge(lt, rt, now, seq))
                seq += 1
        return out

    def _merge(
        self, lt: SensorTuple, rt: SensorTuple, now: float, seq: int
    ) -> SensorTuple:
        payload = merge_payloads(
            lt.values(), rt.values(), self.left_prefix, self.right_prefix
        )
        l_stamp, r_stamp = lt.stamp, rt.stamp
        l_point = representative_point(l_stamp.location)
        r_point = representative_point(r_stamp.location)
        if l_point == r_point:
            location = l_stamp.location
        else:
            location = Box(
                south=min(l_point.lat, r_point.lat),
                west=min(l_point.lon, r_point.lon),
                north=max(l_point.lat, r_point.lat),
                east=max(l_point.lon, r_point.lon),
            )
        l_themes = l_stamp.themes
        # The coarser granularity of each pair (the left one on a tie).
        l_time, r_time = l_stamp.temporal_granularity, r_stamp.temporal_granularity
        l_space, r_space = l_stamp.spatial_granularity, r_stamp.spatial_granularity
        stamp = SttStamp.typed(
            max(l_stamp.time, r_stamp.time),
            location,
            r_time if r_time.is_coarser_than(l_time) else l_time,
            r_space if r_space.is_coarser_than(l_space) else l_space,
            l_themes + tuple(t for t in r_stamp.themes if t not in l_themes),
        )
        out = SensorTuple.from_owned(
            payload, stamp, f"{self.name}({lt.source}⋈{rt.source})", seq
        )
        if self._pair_log is not None:
            self._pair_log.append((lt, rt))
        if self.lineage is not None:
            self.lineage.record(out, (lt, rt), self.name, now)
        return out

    def extract_partition(
        self, left_attr: str, right_attr: str, value: object
    ) -> dict:
        """Remove and return one equi-key's slice of both windows."""
        moved_left = [t for t in self.left_cache if t.get(left_attr) == value]
        moved_right = [
            t for t in self.right_cache if t.get(right_attr) == value
        ]
        if moved_left:
            self.left_cache.restore(
                [t for t in self.left_cache if t.get(left_attr) != value],
                evicted=self.left_cache.evicted,
            )
        if moved_right:
            self.right_cache.restore(
                [t for t in self.right_cache if t.get(right_attr) != value],
                evicted=self.right_cache.evicted,
            )
        return {"left": moved_left, "right": moved_right}

    def adopt_partition(self, state: dict) -> None:
        """Fold a donor's extracted equi-key slice into both windows.

        Merged stable-sorted by stamp time (residents first on ties) so
        the caches stay approximately time-ordered for pruning.
        """
        for cache, moved in (
            (self.left_cache, state.get("left", ())),
            (self.right_cache, state.get("right", ())),
        ):
            moved = list(moved)
            if moved:
                cache.restore(
                    sorted(list(cache) + moved, key=lambda t: t.stamp.time),
                    evicted=cache.evicted,
                )

    def reset(self) -> None:
        super().reset()
        self.left_cache.clear()
        self.right_cache.clear()

    def checkpoint(self) -> dict:
        state = super().checkpoint()
        state["left"] = self.left_cache.snapshot()
        state["right"] = self.right_cache.snapshot()
        state["evicted"] = (self.left_cache.evicted, self.right_cache.evicted)
        return state

    def restore(self, state: dict) -> None:
        super().restore(state)
        evicted = state.get("evicted", (0, 0))
        self.left_cache.restore(state["left"], evicted=evicted[0])
        self.right_cache.restore(state["right"], evicted=evicted[1])

    def describe(self) -> str:
        return f"s1 ⋈{self.interval}_{{{self.predicate.source}}} s2"
