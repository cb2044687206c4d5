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

Flush strategy.  When the predicate's top-level ``and``-chain holds an
equi-conjunct between the two sides (``left.a == right.b``), the flush
**hash-partitions** the right window on those attributes and probes it per
left tuple — O(|L| + |R| + matches), not the O(|L| x |R|) nested loop
(DESIGN.md §9 argues each rule):

- *The bucket is the proof.*  Keys are plain scalars (str/int/float/bool/
  None) whose hash equality is the evaluator's ``==``, so on a candidate
  every equi-conjunct is ``True`` and is dropped; what runs is the
  **residual** and-chain of the other conjuncts, in order, as one two-row
  closure — nothing at all for an equi-only predicate.
- *NaN equals nothing*, but a dict finds a key by identity before ``==``:
  a tuple with a key component ``v != v`` enters no bucket and probes none.
- *Derive once.*  Within a flush, output names are memoised per (left
  names, right names), location/granularities/themes per identity of the
  eight stamp fields they derive from (the windows keep every stamp alive
  until the flush returns, and the memos die with it), the label per
  source pair.

Pairs, left-major order and seq numbers are the nested loop's; pairs the
hash prunes never evaluate, so predicate *errors* are counted on
candidates only.  The nested loop is the reference, the path of non-equi
predicates, and the fallback when a window tuple lacks a key attribute or
holds a key value outside the scalar types.
"""

from __future__ import annotations

from repro.errors import DataflowError
from repro.expr.ast import AttributeRef, BinaryOp, Node
from repro.expr.compile import compile_node
from repro.expr.eval import CompiledExpression, compile_expression
from repro.streams.base import BlockingOperator
from repro.streams.tuple import SensorTuple
from repro.streams.windows import TupleCache
from repro.stt.event import SttStamp
from repro.stt.spatial import Box, representative_point

#: A join predicate binds no unqualified names.
_NO_VALUES: dict = {}


def merged_names(left, right, left_prefix: str, right_prefix: str) -> list[str]:
    """Output attribute names of a pair, the left side's then the right
    side's, colliding names prefixed (join output rule)."""
    collisions = set(left) & set(right)
    return [f"{left_prefix}_{n}" if n in collisions else n for n in left] + [
        f"{right_prefix}_{n}" if n in collisions else n for n in right]


def merge_payloads(left, right, left_prefix: str, right_prefix: str) -> dict:
    """Merge two payloads with collision prefixing (join output rule)."""
    names = merged_names(left, right, left_prefix, right_prefix)
    return dict(zip(names, (*left.values(), *right.values())))


def compose_stamps(l_stamp: SttStamp, r_stamp: SttStamp) -> tuple:
    """(location, temporal granularity, spatial granularity, themes) of a
    pair: the bounding location, the coarser granularity of each kind (the
    left one on a tie) and the union of themes."""
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
    l_time, r_time = l_stamp.temporal_granularity, r_stamp.temporal_granularity
    l_space, r_space = l_stamp.spatial_granularity, r_stamp.spatial_granularity
    l_themes = l_stamp.themes
    return (
        location,
        r_time if r_time.is_coarser_than(l_time) else l_time,
        r_space if r_space.is_coarser_than(l_space) else l_space,
        l_themes + tuple(t for t in r_stamp.themes if t not in l_themes),
    )


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
    ) -> None:
        super().__init__(interval, name or "join")
        if left_prefix == right_prefix:
            raise DataflowError("join prefixes must differ")
        if isinstance(predicate, str):
            predicate = compile_expression(predicate)
        self.predicate = predicate
        self.left_prefix = left_prefix
        self.right_prefix = right_prefix
        self.left_cache = TupleCache(max_tuples=max_cache)
        self.right_cache = TupleCache(max_tuples=max_cache)
        #: [(left_attr, right_attr)] equi-conjuncts found in the predicate.
        self.equi_keys, residual = self._split_conjuncts(predicate.root)
        #: Two-row closures ``f({}, {left: payload, right: payload})``: the
        #: whole predicate, and what a matching bucket key leaves of it —
        #: the and-chain of the non-equi conjuncts, or None for nothing.
        self._whole = compile_node(predicate.root, predicate.functions)
        self._residual = compile_node(
            residual, predicate.functions
        ) if residual is not None and self.equi_keys else None
        #: When set (to a list) by a sharding adapter, every emitted pair's
        #: source tuples are appended so the merge stage can order pairs
        #: across shards without re-parsing composed ``source`` strings.
        self._pair_log: "list[tuple[SensorTuple, SensorTuple]] | None" = None

    def _split_conjuncts(
        self, root: Node
    ) -> "tuple[list[tuple[str, str]], Node | None]":
        """The top-level and-chain as (equality conjuncts ``left.a ==
        right.b`` normalized to (left_attr, right_attr), the and-chain of
        the other conjuncts in order — None when there are none)."""

        def conjuncts(node: Node):
            if isinstance(node, BinaryOp) and node.op == "and":
                yield from conjuncts(node.left)
                yield from conjuncts(node.right)
            else:
                yield node

        pairs: list[tuple[str, str]] = []
        residual: "Node | None" = None
        for node in conjuncts(root):
            refs: dict[str, str] = {}
            if isinstance(node, BinaryOp) and node.op == "==":
                refs = {ref.qualifier: ref.name for ref in (node.left, node.right)
                        if isinstance(ref, AttributeRef)}
            if refs.keys() == {self.left_prefix, self.right_prefix}:
                pairs.append((refs[self.left_prefix], refs[self.right_prefix]))
            else:
                residual = (
                    node if residual is None else BinaryOp("and", residual, node))
        return pairs, residual

    def _process(self, tuple_: SensorTuple, port: int) -> list[SensorTuple]:
        (self.left_cache if port == 0 else self.right_cache).add(tuple_)
        return []

    def _process_batch(self, tuples, port: int) -> list[SensorTuple]:
        (self.left_cache if port == 0 else self.right_cache).extend(tuples)
        return []

    #: Key value types whose hash equality is the expression evaluator's
    #: ``==`` (numeric cross-type equality included) — but for NaN, which a
    #: dict matches with itself by identity and ``_bucket_keys`` keeps out.
    _HASHABLE_KEY_TYPES = (str, int, float, bool, type(None))

    def _flush(self, now: float) -> list[SensorTuple]:
        left_window = self.left_cache.drain()
        right_window = self.right_cache.drain()
        if not left_window or not right_window:
            return []
        if self.equi_keys:
            out = self._hash_flush(left_window, right_window, now)
            if out is not None:
                return out
        return self._nested_loop_flush(left_window, right_window, now)

    def _holds(self, test, rows: dict) -> bool:
        """One pair through a two-row closure: an exception or a
        non-boolean result is counted as an error and is no match."""
        try:
            result = test(_NO_VALUES, rows)
        except Exception:
            result = None
        if result is True or result is False:
            return result
        self.stats.errors += 1
        return False

    def _nested_loop_flush(
        self,
        left_window: list[SensorTuple],
        right_window: list[SensorTuple],
        now: float,
    ) -> list[SensorTuple]:
        """Reference O(|L| x |R|) flush — every pair runs the whole
        predicate and is assembled by :meth:`_merge`, nothing memoised."""
        out: list[SensorTuple] = []
        rows: dict = {}
        right = [(rt, rt.payload) for rt in right_window]
        for lt in left_window:
            rows[self.left_prefix] = lt.payload
            for rt, r_payload in right:
                rows[self.right_prefix] = r_payload
                if self._holds(self._whole, rows):
                    out.append(self._merge(lt, rt, now, len(out)))
        return out

    def _bucket_keys(self, window: list[SensorTuple], names: list[str]):
        """Each window tuple's bucket key — ``None`` where a NaN component
        keeps the tuple out of every pair — or ``None`` for the whole
        window when the nested loop must take the flush."""
        scalar = self._HASHABLE_KEY_TYPES
        keys: "list[tuple | None]" = []
        for tuple_ in window:
            payload = tuple_.payload
            key, nan = [], False
            for name in names:
                value = payload.get(name, ...)
                if not isinstance(value, scalar):
                    return None  # missing (``...``) or no hash == eq guarantee
                if value != value:
                    nan = True
                key.append(value)
            keys.append(None if nan else tuple(key))
        return keys

    def _hash_flush(
        self,
        left_window: list[SensorTuple],
        right_window: list[SensorTuple],
        now: float,
    ) -> "list[SensorTuple] | None":
        """Equi-key hash join by the module docstring's three rules; returns
        None to signal nested-loop fallback."""
        left_keys = self._bucket_keys(left_window, [l for l, _ in self.equi_keys])
        right_keys = self._bucket_keys(right_window, [r for _, r in self.equi_keys])
        if left_keys is None or right_keys is None:
            return None
        buckets: dict[tuple, list[SensorTuple]] = {}
        for rt, key in zip(right_window, right_keys):
            if key is not None:
                buckets.setdefault(key, []).append(rt)

        holds, residual = self._holds, self._residual
        left_prefix, right_prefix = self.left_prefix, self.right_prefix
        name, pair_log, lineage = self.name, self._pair_log, self.lineage
        typed, owned = SttStamp.typed, SensorTuple.from_owned
        rows, plans, stamps, labels = {}, {}, {}, {}  # reused / per-flush memos
        out: list[SensorTuple] = []
        for lt, key in zip(left_window, left_keys):
            candidates = buckets.get(key)
            if candidates is None:
                continue
            l_payload, l_stamp, l_source = lt.payload, lt.stamp, lt.source
            l_names, l_time = tuple(l_payload), l_stamp.time
            l_fields = (id(l_stamp.location), id(l_stamp.temporal_granularity),
                        id(l_stamp.spatial_granularity), id(l_stamp.themes))
            rows[left_prefix] = l_payload
            for rt in candidates:
                r_payload, r_stamp = rt.payload, rt.stamp
                if residual is not None:
                    rows[right_prefix] = r_payload
                    if not holds(residual, rows):
                        continue
                shape = (l_names, tuple(r_payload))
                names = plans.get(shape)
                if names is None:
                    names = plans[shape] = merged_names(
                        *shape, left_prefix, right_prefix)
                fields = l_fields + (
                    id(r_stamp.location), id(r_stamp.temporal_granularity),
                    id(r_stamp.spatial_granularity), id(r_stamp.themes))
                composed = stamps.get(fields)
                if composed is None:
                    composed = stamps[fields] = compose_stamps(l_stamp, r_stamp)
                sources = (l_source, rt.source)
                label = labels.get(sources)
                if label is None:
                    label = labels[sources] = f"{name}({l_source}⋈{rt.source})"
                r_time = r_stamp.time
                pair = owned(
                    dict(zip(names, (*l_payload.values(), *r_payload.values()))),
                    typed(r_time if r_time > l_time else l_time, *composed),
                    label,
                    len(out),
                )
                out.append(pair)
                if pair_log is not None:
                    pair_log.append((lt, rt))
                if lineage is not None:
                    lineage.record(pair, (lt, rt), name, now)
        return out

    def _merge(
        self, lt: SensorTuple, rt: SensorTuple, now: float, seq: int
    ) -> SensorTuple:
        l_stamp, r_stamp = lt.stamp, rt.stamp
        out = SensorTuple.from_owned(
            merge_payloads(
                lt.payload, rt.payload, self.left_prefix, self.right_prefix),
            SttStamp.typed(
                max(l_stamp.time, r_stamp.time), *compose_stamps(l_stamp, r_stamp)),
            f"{self.name}({lt.source}⋈{rt.source})",
            seq,
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
