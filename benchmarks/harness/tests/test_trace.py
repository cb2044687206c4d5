"""Span arithmetic and wrapper installation."""

import numpy as np
import pytest

from benchmarks.harness.trace import SpanTable, TraceError, Tracer


def _table(spans, root=0):
    """spans: (kind name, parent index, start, end)."""
    names = sorted({s[0] for s in spans})
    return SpanTable(
        names,
        np.array([names.index(s[0]) for s in spans], dtype=np.uint16),
        np.array([s[1] for s in spans], dtype=np.int32),
        np.array([s[2] for s in spans], dtype=np.int64),
        np.array([s[3] for s in spans], dtype=np.int64),
        root,
    )


def test_self_time_is_duration_minus_direct_children():
    #  root 0..100
    #    a 10..60      (children: b 20..30, b 40..55)
    #    c 70..90      (child: a 75..80)
    table = _table([
        ("clock:root", -1, 0, 100),
        ("x.a:call", 0, 10, 60),
        ("x.b:call", 1, 20, 30),
        ("x.b:call", 1, 40, 55),
        ("y.c:call", 0, 70, 90),
        ("x.a:call", 4, 75, 80),
    ])
    kinds = table.by_kind()
    assert kinds["clock:root"] == (100 - 50 - 20, 1)
    assert kinds["x.a:call"] == ((50 - 10 - 15) + 5, 2)
    assert kinds["x.b:call"] == (25, 2)
    assert kinds["y.c:call"] == (20 - 5, 1)
    layers = table.by_layer()
    assert layers["x.a"] == (30, 2)
    assert list(layers)[0] == "x.a" or list(layers)[0] == "clock"
    # Self times partition the root exactly.
    assert sum(ns for ns, _ in layers.values()) == 100
    assert table.closure_pct(100) == 0
    assert table.closure_pct(125) == pytest.approx(20.0)


def test_spans_outside_the_root_are_not_the_runs():
    table = _table([
        ("x.a:call", -1, 0, 5),          # set-up, before the root opens
        ("clock:root", -1, 10, 50),
        ("x.a:call", 1, 20, 30),
    ], root=1)
    assert table.by_kind()["x.a:call"] == (10, 1)
    assert table.durations_of("x.a:call").tolist() == [10]
    assert table.durations_of("no.such:kind").size == 0


class _Leaf:
    def work(self, n):
        return sum(range(n))


class _Sub(_Leaf):
    pass


class _Caller:
    def __init__(self):
        self.leaf = _Leaf()

    def run(self):
        return self.leaf.work(10) + self.leaf.work(20)


def test_install_wraps_and_uninstall_restores():
    original = _Leaf.work
    tracer = Tracer()
    tracer.install([
        ("up.caller", _Caller, "run"),
        ("down.leaf", _Leaf, "work"),
        ("down.leaf", _Leaf, "deleted_twin"),     # missing twin: fine
    ])
    try:
        assert tracer.run_root(_Caller().run, "clock") == 45 + 190
    finally:
        tracer.uninstall()
    assert _Leaf.work is original
    table = tracer.table()
    kinds = table.by_kind()
    assert kinds["down.leaf:work"][1] == 2
    assert kinds["up.caller:run"][1] == 1
    total = sum(ns for ns, _ in table.by_layer().values())
    assert total == pytest.approx(table.root_ns)
    assert table.closure_pct(table.root_ns) < 1e-9


def test_a_layer_with_no_entry_point_left_is_an_error():
    tracer = Tracer()
    with pytest.raises(TraceError, match="gone.layer"):
        tracer.install([
            ("down.leaf", _Leaf, "work"),
            ("gone.layer", _Leaf, "no_such_method"),
        ])
    assert "traced" not in _Leaf.work.__qualname__


def test_layer_by_receiver_type():
    tracer = Tracer()
    tracer.install(
        [], operator_classes=[_Leaf], operator_methods=["work"],
        operator_layer=lambda cls: "kind.sub" if cls is _Sub else "kind.leaf",
    )
    try:
        def three_calls():
            _Leaf().work(3)
            _Sub().work(3)
            _Sub().work(3)

        tracer.run_root(three_calls, "clock")
    finally:
        tracer.uninstall()
    kinds = tracer.table().by_kind()
    assert kinds["kind.leaf:work"][1] == 1
    assert kinds["kind.sub:work"][1] == 2
