"""Span tracer for the traced run: wrappers installed from the outside.

``Tracer.install`` replaces a declared table of ``(layer, class,
method)`` entry points with timing wrappers; ``uninstall`` puts the
originals back.  Nothing under ``src/`` changes.  Each call records one
span — kind, start, end, parent — in compact in-memory arrays; parents
come from a call stack, so a layer's *self* time is its span's duration
minus the durations of the spans it directly caused.  Self times
partition the root span exactly, which is what lets the per-layer table
close against the run's wall time.

The tracer knows nothing about ``repro``; ``sut.py`` supplies the
classes.
"""

from __future__ import annotations

import time
from array import array
from functools import wraps

import numpy as np


class TraceError(RuntimeError):
    """The entry-point table no longer matches the program."""


class Tracer:
    """Records spans for every wrapped call between install and uninstall.

    A span *kind* is ``"<layer>:<method>"``; the layer is the part before
    the colon.
    """

    def __init__(self) -> None:
        self.kind_names: list[str] = []
        self._kind_ids: dict[str, int] = {}
        self.kinds = array("H")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [-1]
        self._installed: list = []

    # -- recording -----------------------------------------------------------

    def kind_id(self, name: str) -> int:
        kind = self._kind_ids.get(name)
        if kind is None:
            kind = self._kind_ids[name] = len(self.kind_names)
            self.kind_names.append(name)
        return kind

    def wrap(self, fn, kind_name: str):
        """``fn`` timed as one span of a fixed kind."""
        return self._traced(fn, self.kind_id(kind_name), None)

    def wrap_by_type(self, fn, method: str, layer_of):
        """``fn`` timed as a span whose layer depends on ``type(self)``.

        ``layer_of(cls)`` names the layer; the answer is cached per class.
        """
        return self._traced(
            fn, None, lambda cls: self.kind_id(f"{layer_of(cls)}:{method}"))

    def _traced(self, fn, fixed_kind: "int | None", kind_of_type):
        kinds, parents, starts, ends = (
            self.kinds, self.parents, self.starts, self.ends)
        stack = self._stack
        now = time.perf_counter_ns
        by_type: dict = {}

        @wraps(fn)
        def traced(*args, **kwargs):
            kind = fixed_kind
            if kind is None:
                cls = type(args[0])
                kind = by_type.get(cls)
                if kind is None:
                    kind = by_type[cls] = kind_of_type(cls)
            index = len(kinds)
            kinds.append(kind)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = now()
                stack.pop()

        return traced

    def run_root(self, fn, layer: str):
        """Call ``fn`` as the span every measured span must descend from."""
        self.root_index = len(self.kinds)
        return self.wrap(fn, f"{layer}:root")()

    # -- installing ----------------------------------------------------------

    def install(self, entry_points, operator_classes=(), operator_methods=(),
                operator_layer=None) -> None:
        """Wrap every entry point that exists.

        Raises :class:`TraceError` if a layer of ``entry_points`` ends up
        with no wrapped method at all.
        """
        wrapped_layers: dict[str, int] = {}
        for layer, cls, method in entry_points:
            wrapped_layers.setdefault(layer, 0)
            original = vars(cls).get(method)
            if original is None:
                continue
            setattr(cls, method, self.wrap(original, f"{layer}:{method}"))
            self._installed.append((cls, method, original))
            wrapped_layers[layer] += 1
        empty = sorted(l for l, n in wrapped_layers.items() if n == 0)
        if empty:
            self.uninstall()
            raise TraceError(
                f"no entry point left to wrap for layer(s) {empty}; "
                "update the table in sut.py")
        for cls in operator_classes:
            for method in operator_methods:
                original = vars(cls).get(method)
                if original is None:
                    continue
                setattr(cls, method,
                        self.wrap_by_type(original, method, operator_layer))
                self._installed.append((cls, method, original))

    def uninstall(self) -> None:
        while self._installed:
            cls, method, original = self._installed.pop()
            setattr(cls, method, original)

    # -- reading -------------------------------------------------------------

    def table(self) -> "SpanTable":
        return SpanTable(
            self.kind_names,
            np.frombuffer(self.kinds, dtype=np.uint16),
            np.frombuffer(self.parents, dtype=np.int32),
            np.frombuffer(self.starts, dtype=np.int64),
            np.frombuffer(self.ends, dtype=np.int64),
            self.root_index,
        )


class SpanTable:
    """Self-time arithmetic over a finished set of spans."""

    def __init__(self, kind_names, kinds, parents, starts, ends, root):
        self.kind_names = list(kind_names)
        self.kinds = kinds
        self.parents = parents
        self.starts = starts
        self.ends = ends
        self.root = root
        durations = (ends - starts).astype(np.float64)
        has_parent = parents >= 0
        children = np.bincount(
            parents[has_parent], weights=durations[has_parent],
            minlength=len(kinds))
        self.durations = durations
        self.self_ns = durations - children
        # Spans of the set-up (before the root opened) are not the run's.
        self.in_root = (starts >= starts[root]) & (ends <= ends[root])

    @property
    def root_ns(self) -> float:
        return float(self.durations[self.root])

    def by_kind(self) -> "dict[str, tuple[float, int]]":
        """kind -> (self ns, calls) over the spans under the root."""
        kinds = self.kinds[self.in_root]
        self_ns = np.bincount(kinds, weights=self.self_ns[self.in_root],
                              minlength=len(self.kind_names))
        calls = np.bincount(kinds, minlength=len(self.kind_names))
        return {
            name: (float(self_ns[i]), int(calls[i]))
            for i, name in enumerate(self.kind_names) if calls[i]
        }

    def by_layer(self) -> "dict[str, tuple[float, int]]":
        """layer -> (self ns, calls), most expensive first."""
        out: dict = {}
        for kind, (self_ns, calls) in self.by_kind().items():
            layer = kind.split(":")[0]
            total, count = out.get(layer, (0.0, 0))
            out[layer] = (total + self_ns, count + calls)
        return dict(sorted(out.items(), key=lambda item: -item[1][0]))

    def durations_of(self, kind: str) -> np.ndarray:
        """Durations (ns) of every span of ``kind`` under the root."""
        if kind not in self.kind_names:
            return np.empty(0)
        mask = self.in_root & (self.kinds == self.kind_names.index(kind))
        return self.durations[mask]

    def closure_pct(self, wall_ns: float) -> float:
        """|sum of layer self times - wall| as a share of wall, in %."""
        total = float(self.self_ns[self.in_root].sum())
        return abs(total - wall_ns) / wall_ns * 100.0

    def save(self, path) -> None:
        """Write the raw spans (kind, parent, start, end) as ``.npz``."""
        np.savez_compressed(
            path, kind_names=np.array(self.kind_names), kinds=self.kinds,
            parents=self.parents, starts=self.starts, ends=self.ends)
