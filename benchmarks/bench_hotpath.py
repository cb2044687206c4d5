"""Hot-path regression benchmarks (pytest-benchmark flavour).

Pairs each fast path with its reference implementation so a regression in
either shows up in ``pytest-benchmark compare``:

- compiled expression closure vs the tree-walking interpreter;
- generation-counter route cache vs per-call shortest-path recomputation;
- incremental aggregation accumulators vs window rescan;
- hash join vs nested-loop join.

``python -m benchmarks.run_hotpath`` is the standalone before/after runner
that writes ``BENCH_2.json``; this module tracks the same workloads under
pytest-benchmark so they ride the existing harness.
"""

import pytest

from benchmarks.run_hotpath import (
    EXPRESSIONS,
    PAYLOAD,
    _line_topology,
    _make_tuple,
)
from repro.expr.eval import compile_expression
from repro.streams.aggregate import AggregationOperator
from repro.streams.join import JoinOperator


@pytest.mark.benchmark(group="hotpath-expr")
class TestCompiledExpressions:
    @pytest.mark.parametrize("name,source", EXPRESSIONS)
    def test_interpreted(self, benchmark, name, source):
        expr = compile_expression(source).prepare()
        benchmark(lambda: [expr.interpret(PAYLOAD) for _ in range(1000)])

    @pytest.mark.parametrize("name,source", EXPRESSIONS)
    def test_compiled(self, benchmark, name, source):
        expr = compile_expression(source).prepare()
        benchmark(lambda: [expr.evaluate(PAYLOAD) for _ in range(1000)])


@pytest.mark.benchmark(group="hotpath-route")
class TestRouteCache:
    def test_uncached(self, benchmark):
        topo = _line_topology()
        benchmark(lambda: [topo.route_uncached("n0", "n7") for _ in range(100)])

    def test_cached(self, benchmark):
        topo = _line_topology()
        topo.route_info("n0", "n7")  # warm the cache
        benchmark(lambda: [topo.route_info("n0", "n7") for _ in range(100)])


def _standing_aggregation(incremental: bool, size: int = 2000):
    op = AggregationOperator(
        interval=60.0, attributes=["temperature"], function="AVG",
        group_by="station", window=1e12, incremental=incremental,
    )
    for i in range(size):
        op.on_tuple(_make_tuple(i, f"st-{i % 10}", float(i % 37), at=float(i)))
    return op


@pytest.mark.benchmark(group="hotpath-aggregate")
class TestIncrementalAggregation:
    def test_rescan_flush(self, benchmark):
        op = _standing_aggregation(incremental=False)
        benchmark(lambda: op.on_timer(1e9))

    def test_incremental_flush(self, benchmark):
        op = _standing_aggregation(incremental=True)
        benchmark(lambda: op.on_timer(1e9))


def _join_cycle(reference: bool, size: int = 100):
    left = [_make_tuple(i, f"st-{i % 25}", float(i)) for i in range(size)]
    right = [_make_tuple(i, f"st-{i % 25}", float(i)) for i in range(size)]
    op = JoinOperator(
        interval=60.0,
        predicate="left.station == right.station",
    )

    def cycle():
        if reference:  # the nested loop, called directly on the windows
            return op._nested_loop_flush(left, right, 60.0)
        for t in left:
            op.on_tuple(t, port=0)
        for t in right:
            op.on_tuple(t, port=1)
        return op.on_timer(60.0)

    return cycle


@pytest.mark.benchmark(group="hotpath-join")
class TestHashJoin:
    def test_nested_loop(self, benchmark):
        assert benchmark(_join_cycle(reference=True))

    def test_hash_flush(self, benchmark):
        assert benchmark(_join_cycle(reference=False))
