"""Unit tests for the columnar tier: batches, kernels, lazy boundary."""

from dataclasses import replace
import pytest

from repro.expr.compile import compile_expression
from repro.expr.vectorize import (
    _fallback_values, predicate_kernel, values_kernel,
)
from repro.streams.columnar import MIN_COLUMNAR_ROWS, ColumnarBatch, LazyRows
from repro.streams.filter import FilterOperator
from repro.streams.fused import FusedOperator
from repro.streams.transform import TransformOperator
from repro.streams.tuple import SensorTuple, TupleBatch
from repro.stt.event import SttStamp
from repro.stt.spatial import Point


def _tuples(n=6):
    return [
        SensorTuple(
            payload={"station": f"s{i % 2}", "temperature": 10.0 + i},
            stamp=SttStamp(time=float(i), location=Point(1.0, 2.0)),
            source="src",
            seq=i,
        )
        for i in range(n)
    ]


class TestColumnarBatch:
    def test_from_tuples_transposes_in_field_order(self):
        col = ColumnarBatch.from_tuples(_tuples(3))
        assert col.fields == ("station", "temperature")
        assert col.columns["temperature"] == [10.0, 11.0, 12.0]
        assert col.count == len(col) == 3

    def test_empty_and_heterogeneous_are_not_columnar(self, make_tuple):
        assert ColumnarBatch.from_tuples([]) is None
        mixed = [make_tuple(0), make_tuple(1, extra=1)]
        assert ColumnarBatch.from_tuples(mixed) is None

    def test_same_keys_different_order_is_not_columnar(self):
        ts = _tuples(1) + [
            SensorTuple(
                payload={"temperature": 20.0, "station": "s9"},
                stamp=SttStamp(time=9.0, location=Point(1.0, 2.0)),
                source="src",
                seq=9,
            )
        ]
        # Key *order* is part of the parity contract (materialized dicts
        # rebuild in column order), so a reordered payload disqualifies.
        assert ColumnarBatch.from_tuples(ts) is None

    def test_clean_to_tuples_returns_original_objects(self):
        ts = _tuples(4)
        col = ColumnarBatch.from_tuples(ts)
        out = col.to_tuples()
        assert out == ts
        assert all(a is b for a, b in zip(out, ts))
        assert col.to_tuples([1, 3]) == [ts[1], ts[3]]

    def test_fork_isolates_column_installs(self):
        ts = _tuples(3)
        col = ColumnarBatch.from_tuples(ts)
        fork = col.fork()
        fork.set_column("double", [t.payload["temperature"] * 2 for t in ts])
        assert "double" not in col.columns
        assert not col.dirty
        assert fork.dirty
        assert fork.fields == ("station", "temperature", "double")

    def test_dirty_to_tuples_rebuilds_payloads_and_keeps_provenance(self):
        ts = _tuples(4)
        fork = ColumnarBatch.from_tuples(ts).fork()
        fork.set_column("double", [20.0, 22.0, 24.0, 26.0])
        out = fork.to_tuples([0, 2])
        assert [list(t.payload.items()) for t in out] == [
            [("station", "s0"), ("temperature", 10.0), ("double", 20.0)],
            [("station", "s0"), ("temperature", 12.0), ("double", 24.0)],
        ]
        assert type(out[0].payload) is type(ts[0].payload)
        assert out[0].stamp is ts[0].stamp
        assert out[1].seq == 2
        assert out[0].source == "src"
        assert out[0].trace is None

    def test_rename_and_project_follow_row_dict_semantics(self):
        fork = ColumnarBatch.from_tuples(_tuples(2)).fork()
        fork.rename_columns({"temperature": "celsius"})
        assert fork.fields == ("station", "celsius")
        fork.project_columns(["celsius"])
        out = fork.to_tuples()
        assert [dict(t.payload) for t in out] == [{"celsius": 10.0},
                                                  {"celsius": 11.0}]

    def test_project_everything_away_keeps_rows_with_empty_payloads(self):
        fork = ColumnarBatch.from_tuples(_tuples(3)).fork()
        fork.project_columns([])
        out = fork.to_tuples([0, 2])
        assert [dict(t.payload) for t in out] == [{}, {}]
        assert [t.seq for t in out] == [0, 2]

    def test_stamp_column_is_cached(self):
        col = ColumnarBatch.from_tuples(_tuples(3))
        stamps = col.stamp_column()
        assert stamps is col.stamp_column()
        assert [s.time for s in stamps] == [0.0, 1.0, 2.0]

    def test_materializer_handles_exotic_field_names(self):
        ts = [
            SensorTuple(
                payload={"it's": 1, 'a "quoted" key': 2.0},
                stamp=SttStamp(time=0.0, location=Point(0.0, 0.0)),
                source="s",
                seq=0,
            )
        ]
        fork = ColumnarBatch.from_tuples(ts).fork()
        fork.set_column("plain", [3])
        out = fork.to_tuples()
        assert dict(out[0].payload) == {"it's": 1, 'a "quoted" key': 2.0, "plain": 3}


class TestLazyRows:
    def test_len_and_bool_do_not_materialize(self):
        col = ColumnarBatch.from_tuples(_tuples(5))
        lazy = LazyRows(col, [0, 2, 4])
        assert len(lazy) == 3
        assert bool(lazy)
        assert lazy._rows is None

    def test_access_materializes_exactly_once(self):
        ts = _tuples(5)
        lazy = LazyRows(ColumnarBatch.from_tuples(ts), [0, 2, 4])
        first = lazy[0]
        rows = lazy._rows
        assert rows is not None
        assert list(lazy) is not None
        assert lazy._rows is rows  # second access reuses the same rows
        assert first is ts[0]

    def test_compares_equal_to_lists(self):
        ts = _tuples(4)
        lazy = LazyRows(ColumnarBatch.from_tuples(ts), range(4))
        assert lazy == ts
        assert lazy == tuple(ts)
        assert not (lazy == ts[:2])


class TestVectorizedKernels:
    def _columns(self):
        return {"temperature": [10.0, 20.0, 30.0], "station": ["a", "b", "c"]}

    def test_predicate_kernel_keeps_true_rows(self):
        kernel = predicate_kernel(compile_expression("temperature > 15"))
        assert kernel.vectorized is True
        kept, errors = kernel(self._columns(), range(3))
        assert kept == [1, 2]
        assert errors == 0

    def test_predicate_kernel_counts_non_boolean_as_error(self):
        kernel = predicate_kernel(compile_expression("temperature"))
        kept, errors = kernel(self._columns(), range(3))
        assert kept == []
        assert errors == 3

    def test_values_kernel_quarantines_failing_rows(self):
        kernel = values_kernel(
            compile_expression("temperature / (temperature - 20)"))
        values, errors = kernel(self._columns(), range(3))
        assert errors == [1]
        assert values[1] is None
        assert values[0] == pytest.approx(-1.0)

    def test_missing_column_errors_only_when_reached(self):
        # The presence check fires at the reference, so a short-circuited
        # branch never raises — identical laziness to the scalar path.
        columns = self._columns()
        eager = predicate_kernel(compile_expression("nope > 0"))
        kept, errors = eager(columns, range(3))
        assert (kept, errors) == ([], 3)
        lazy = predicate_kernel(
            compile_expression("temperature > 0 or nope > 0"))
        kept, errors = lazy(columns, range(3))
        assert (kept, errors) == ([0, 1, 2], 0)

    def test_qualified_reference_falls_back_to_row_kernel(self):
        kernel = predicate_kernel(compile_expression("left.temperature > 15"))
        assert kernel.vectorized is False
        # Qualified payloads never exist on the single-input column path,
        # so every row errors — exactly like the scalar closure would.
        kept, errors = kernel(self._columns(), range(3))
        assert (kept, errors) == ([], 3)

    def test_fallback_values_kernel_matches_scalar_results(self):
        expression = compile_expression("temperature * 2")
        kernel = _fallback_values(expression)
        assert kernel.vectorized is False
        values, errors = kernel(self._columns(), [0, 2])
        assert values == [20.0, 60.0]
        assert errors == []


class TestFusedColumnarGate:
    def _chain(self):
        return FusedOperator(
            [
                FilterOperator("temperature > 10", name="keep"),
                TransformOperator(
                    assignments={"double": "temperature * 2"}, name="dbl"
                ),
            ]
        )

    def test_large_uniform_batches_take_the_columnar_path(self):
        fused = self._chain()
        batch = TupleBatch.of(_tuples(MIN_COLUMNAR_ROWS))
        out = fused.on_batch(batch, 0)
        assert isinstance(out, LazyRows)
        assert [t.payload["double"] for t in out] == [22.0, 24.0, 26.0]

    def test_small_batches_stay_on_the_row_path(self):
        fused = self._chain()
        out = fused.on_batch(TupleBatch.of(_tuples(MIN_COLUMNAR_ROWS - 1)), 0)
        assert isinstance(out, list)

    def test_heterogeneous_batches_fall_back_to_rows(self):
        ts = _tuples(6)
        ts[3] = replace(ts[3], payload={**ts[3].payload, "extra": 1})
        fused = self._chain()
        out = fused.on_batch(TupleBatch.of(ts), 0)
        assert isinstance(out, list)
        assert len(out) == 5

    def test_columnar_and_row_paths_agree_bytewise(self):
        batch = TupleBatch.of(_tuples(8))
        fused_col, fused_row = self._chain(), self._chain()
        col_out = list(fused_col.on_batch(batch, 0))
        row_out = [out for t in batch for out in fused_row.on_tuple(t)]
        assert [list(t.payload.items()) for t in col_out] == [
            list(t.payload.items()) for t in row_out
        ]
        assert [m.stats.snapshot() for m in fused_col.members] == [
            m.stats.snapshot() for m in fused_row.members
        ]


class TestEnvelopeCache:
    def test_columnar_is_cached_on_the_batch(self):
        batch = TupleBatch.of(_tuples(4))
        col = batch.columnar()
        assert batch.columnar() is col

    def test_negative_result_is_cached_too(self, make_tuple):
        batch = TupleBatch.of(
            [make_tuple(0), make_tuple(1, extra=1)])
        assert batch.columnar() is None
        assert batch._cols is not None  # the sentinel, not a retry
        assert batch.columnar() is None
