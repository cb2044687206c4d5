"""Struct-of-arrays micro-batches: the columnar physical representation.

A :class:`TupleBatch` is row-oriented — a run of :class:`SensorTuple`
objects, each owning a payload mapping.  Operators that process a batch
pay Python-level work *per row*: a closure call, one or two dict copies,
and a tuple clone.  A :class:`ColumnarBatch` transposes the same batch
into one list per payload field so the vectorized expression kernels
(:mod:`repro.expr.vectorize`) can run the whole loop inside generated
code with direct list indexing, and so a fused chain can pass a single
columnar batch plus a shrinking *selection vector* between members with
no re-materialization.

Representation invariants:

- **Uniform schema.**  Every row shares the same payload key *order*
  (``tuple(payload)``).  Heterogeneous batches are not transposed —
  :meth:`from_tuples` returns ``None`` and callers keep the row path.
  Order matters because materialization rebuilds payload dicts in column
  order, and the row path's dict-insertion-order semantics are part of
  the parity contract.
- **Columns are never mutated in place.**  Transform/virtual kernels
  install freshly built lists via :meth:`set_column`; the lists created
  by :meth:`from_tuples` are shared with the (cached, re-deliverable)
  source batch, so a pipeline always works on a :meth:`fork` whose
  column *dict* is private while the untouched column lists stay shared.
- **Selection vectors only shrink.**  Operators in the accelerated
  family emit zero-or-one tuple per input, so a member maps a selection
  to a sub-selection.  Rows dropped from the selection may be left with
  stale/placeholder values in later-installed columns; they are never
  materialized, so those holes are unobservable.
- **Originals carry provenance.**  Stamp, source, seq, and trace are
  not copied into columns; materialization clones them from the source
  row, so traces attached by the broker ride through untouched.

Rows come back to :class:`SensorTuple` form only at materialization
boundaries — the end of a fused chain (before forwarding to blocking,
sink, or sharded consumers) — via :meth:`to_tuples`.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Sequence

from repro.streams.tuple import SensorTuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.stt.event import SttStamp


#: Materializer kernels, one per payload schema (field-name tuple).
#: Generated on first use; the population is bounded by the number of
#: distinct schemas flowing through the plane.
_MATERIALIZERS: "dict[tuple[str, ...], Callable]" = {}


def _materializer(fields: "tuple[str, ...]") -> Callable:
    """A generated row-builder for one payload schema.

    ``dict(zip(fields, values))`` was the single most expensive step of
    materialization (~40% of the loop); with the schema known, a kernel
    with the field names baked in as dict-literal keys builds each
    payload with one ``BUILD_MAP`` of constant keys and direct column
    indexing — and needs no per-selection column re-picking either.
    """
    kernel = _MATERIALIZERS.get(fields)
    if kernel is not None:
        return kernel
    cols = [f"_c{i}" for i in range(len(fields))]
    binds = "".join(
        f"    {col} = _COLUMNS[{name!r}]\n"
        for col, name in zip(cols, fields)
    )
    payload = ", ".join(
        f"{name!r}: {col}[_i]" for name, col in zip(fields, cols)
    )
    source = (
        "def _mkernel(_ORIGINALS, _ROWS, _COLUMNS):\n"
        f"{binds}"
        "    _out = []\n"
        "    _append = _out.append\n"
        "    for _i in _ROWS:\n"
        "        _b = _ORIGINALS[_i]\n"
        "        _t = _new(SensorTuple)\n"
        "        _set(_t, '__dict__', {\n"
        f"            'payload': _proxy({{{payload}}}),\n"
        "            'stamp': _b.stamp,\n"
        "            'source': _b.source,\n"
        "            'seq': _b.seq,\n"
        "            'trace': _b.trace,\n"
        "        })\n"
        "        _append(_t)\n"
        "    return _out\n"
    )
    env = {
        "SensorTuple": SensorTuple,
        "_new": SensorTuple.__new__,
        "_set": object.__setattr__,
        "_proxy": MappingProxyType,
    }
    exec(compile(source, "<columnar-materialize>", "exec"), env)
    kernel = env["_mkernel"]
    _MATERIALIZERS[fields] = kernel
    return kernel


class ColumnarBatch:
    """A transposed micro-batch: one value list per payload field.

    Attributes:
        originals: the source rows, aligned with column indices; the
            provenance (stamp/source/seq/trace) store.
        fields: payload field names, in payload insertion order.
        columns: field name -> list of per-row values.  May grow beyond
            ``fields`` of the source batch as kernels install derived
            columns.
        count: number of rows (every column has this length).
        dirty: whether any column/field differs from the source rows;
            when clean, :meth:`to_tuples` returns the original tuple
            objects themselves (identity-preserving fast path).
    """

    __slots__ = ("originals", "fields", "columns", "count", "dirty", "_stamps")

    def __init__(
        self,
        originals: "Sequence[SensorTuple]",
        fields: "tuple[str, ...]",
        columns: "dict[str, list]",
    ) -> None:
        self.originals = originals
        self.fields = fields
        self.columns = columns
        self.count = len(originals)
        self.dirty = False
        self._stamps: "list[SttStamp] | None" = None

    @classmethod
    def from_tuples(
        cls, tuples: "Sequence[SensorTuple]"
    ) -> "ColumnarBatch | None":
        """Transpose ``tuples`` into columns, or ``None`` if ineligible.

        Eligibility is a uniform payload key *sequence* across every row
        (same names, same insertion order).  The check is strict on
        order because materialized payload dicts are rebuilt in column
        order and must be item-for-item identical to the row path's.
        """
        if not tuples:
            return None
        fields = tuple(tuples[0].payload)
        for tuple_ in tuples:
            if tuple(tuple_.payload) != fields:
                return None
        columns = {
            name: [t.payload[name] for t in tuples] for name in fields
        }
        return cls(tuples, fields, columns)

    def __len__(self) -> int:
        return self.count

    def fork(self) -> "ColumnarBatch":
        """A cheap private copy for one pipeline run.

        Shares the originals and the column lists (immutable by the
        no-in-place-mutation invariant) but owns its column dict and
        field tuple, so kernel installs never leak into a cached batch
        that other subscribers may receive.
        """
        clone = ColumnarBatch.__new__(ColumnarBatch)
        clone.originals = self.originals
        clone.fields = self.fields
        clone.columns = dict(self.columns)
        clone.count = self.count
        clone.dirty = False
        clone._stamps = self._stamps
        return clone

    def stamp_column(self) -> "list[SttStamp]":
        """The rows' STT stamps, built on first use (cull kernels)."""
        stamps = self._stamps
        if stamps is None:
            stamps = [t.stamp for t in self.originals]
            self._stamps = stamps
        return stamps

    def set_column(self, name: str, values: list) -> None:
        """Install a freshly built full-length column under ``name``."""
        if name not in self.columns:
            self.fields = self.fields + (name,)
        self.columns[name] = values
        self.dirty = True

    def rename_columns(self, mapping: "dict[str, str]") -> None:
        """Rename fields, with dict-comprehension collision semantics.

        Mirrors the row path's ``{rename.get(k, k): v for k, v in ...}``:
        on a collision the first occurrence fixes the position and the
        last occurrence's values win.
        """
        renamed = {
            mapping.get(name, name): self.columns[name] for name in self.fields
        }
        self.fields = tuple(renamed)
        self.columns = renamed
        self.dirty = True

    def project_columns(self, names: "Sequence[str]") -> None:
        """Keep exactly ``names``, in that order (transform's project)."""
        self.columns = {name: self.columns[name] for name in names}
        self.fields = tuple(names)
        self.dirty = True

    def to_tuples(self, selection: "Sequence[int] | None" = None) -> "list[SensorTuple]":
        """Materialize the selected rows back to :class:`SensorTuple`.

        Clean batches return the original tuple objects (no
        allocation; nothing is remembered on a tuple — its wire size is a
        pure function of the payload).  Dirty batches
        rebuild each payload in column order and clone provenance from
        the original row.
        """
        rows: "Sequence[int]" = (
            range(self.count) if selection is None else selection
        )
        originals = self.originals
        if not self.dirty:
            if selection is None:
                return list(originals)
            return [originals[i] for i in rows]
        # One generated kernel per schema: constant-key payload literals
        # and a single instance-dict install per row (SensorTuple has no
        # __slots__, so the instance dict is the attribute store).  This
        # loop is the materialization boundary of every columnar chain.
        return _materializer(self.fields)(originals, rows, self.columns)


class LazyRows(Sequence):
    """A fused chain's emissions, materialized only when consumed.

    The columnar pipeline knows *how many* rows survived (the final
    selection) without building a single :class:`SensorTuple`; length
    and truthiness answer from that count alone.  The rows themselves
    are built on first element access — which is exactly the
    materialization boundary: a process forwarding to routes iterates
    (building the outgoing batch), while a process with no consumers
    never pays for rows nobody reads.  Materialization runs at most
    once; afterwards the column source is released.
    """

    __slots__ = ("_source", "_selection", "_rows")

    def __init__(
        self, source: ColumnarBatch, selection: "Sequence[int]"
    ) -> None:
        self._source: "ColumnarBatch | None" = source
        self._selection: "Sequence[int] | None" = selection
        self._rows: "list[SensorTuple] | None" = None

    def _materialize(self) -> "list[SensorTuple]":
        rows = self._rows
        if rows is None:
            rows = self._source.to_tuples(self._selection)  # type: ignore[union-attr]
            self._rows = rows
            self._source = None
            self._selection = None
        return rows

    def __len__(self) -> int:
        rows = self._rows
        if rows is not None:
            return len(rows)
        return len(self._selection)  # type: ignore[arg-type]

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self):
        return iter(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LazyRows):
            return self._materialize() == other._materialize()
        if isinstance(other, (list, tuple)):
            return self._materialize() == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "materialized" if self._rows is not None else "lazy"
        return f"LazyRows({len(self)} rows, {state})"


#: Minimum rows for a fused chain to transpose a batch: below this the
#: conversion + materialization overhead outweighs the kernel savings.
MIN_COLUMNAR_ROWS = 4
