"""Unit tests for Transform and Validate operators."""

import pytest

from repro.errors import DataflowError
from repro.streams.filter import FilterOperator
from repro.streams.fused import FusedOperator
from repro.streams.transform import TransformOperator, ValidateOperator
from repro.streams.tuple import TupleBatch


class TestAssignments:
    def test_unit_conversion(self, make_tuple):
        op = TransformOperator(
            {"temperature": "convert(temperature, 'celsius', 'fahrenheit')"}
        )
        out = op.on_tuple(make_tuple(0, temperature=100.0))
        assert out[0]["temperature"] == pytest.approx(212.0)

    def test_new_attribute_via_assignment(self, make_tuple):
        op = TransformOperator({"double_temp": "temperature * 2"})
        out = op.on_tuple(make_tuple(0, temperature=21.0))
        assert out[0]["double_temp"] == 42.0
        assert out[0]["temperature"] == 21.0

    def test_assignments_see_original_values_only(self, make_tuple):
        # Both assignments read the input; order must not matter.
        op = TransformOperator(
            {"temperature": "temperature + 1", "copy": "temperature"}
        )
        out = op.on_tuple(make_tuple(0, temperature=10.0))
        assert out[0]["temperature"] == 11.0
        assert out[0]["copy"] == 10.0

    def test_error_quarantined(self, make_tuple):
        op = TransformOperator({"x": "1 / temperature"})
        out = op.on_tuple(make_tuple(0, temperature=0.0))
        assert out == []
        assert op.stats.errors == 1


class TestRenameProject:
    def test_rename(self, make_tuple):
        op = TransformOperator(rename={"temperature": "temp_c"})
        out = op.on_tuple(make_tuple(0))
        assert "temp_c" in out[0] and "temperature" not in out[0]

    def test_project(self, make_tuple):
        op = TransformOperator(project=["station"])
        out = op.on_tuple(make_tuple(0))
        assert set(out[0].payload) == {"station"}

    def test_assign_rename_project_pipeline(self, make_tuple):
        op = TransformOperator(
            assignments={"f": "convert(temperature, 'c', 'f')"},
            rename={"f": "temp_f"},
            project=["temp_f", "station"],
        )
        out = op.on_tuple(make_tuple(0, temperature=0.0))
        assert out[0]["temp_f"] == pytest.approx(32.0)
        assert set(out[0].payload) == {"temp_f", "station"}

    def test_empty_transform_raises(self):
        with pytest.raises(DataflowError):
            TransformOperator()


class TestProjectMissingAttribute:
    """Hostile input: a tuple lacking a projected attribute is quarantined
    — one error, that tuple dropped — on every entry point, never a
    ``KeyError`` out of the operator."""

    @staticmethod
    def _dry(tuple_):
        """The same reading with ``humidity`` missing (keys keep order)."""
        payload = dict(tuple_.payload)
        del payload["humidity"]
        return tuple_.with_payload(payload)

    def test_lone_tuple(self, make_tuple):
        op = TransformOperator(project=["temperature", "humidity"])
        assert op.on_tuple(self._dry(make_tuple(0))) == []
        assert op.stats.snapshot()["errors"] == 1
        assert len(op.on_tuple(make_tuple(1))) == 1

    def test_row_loop_drops_only_the_offender(self, make_tuple):
        op = TransformOperator(project=["temperature", "humidity"])
        batch = [make_tuple(seq) for seq in range(4)]
        batch[2] = self._dry(batch[2])
        out = op.on_batch(batch)
        assert [t.seq for t in out] == [0, 1, 3]
        assert op.stats.errors == 1

    def test_column_kernel_drops_the_uniform_batch(self, make_tuple):
        project = TransformOperator(
            # Rows 0 and 4 already fail the assignment: each row is
            # still one error, whichever step rejects it first.
            assignments={"ratio": "1 / (temperature - 20)"},
            project=["ratio", "humidity"],
        )
        fused = FusedOperator(
            [FilterOperator("temperature > 0", name="keep"), project]
        )
        batch = TupleBatch.of([
            self._dry(make_tuple(seq, temperature=20.0 + seq % 4))
            for seq in range(8)
        ])
        assert batch.columnar() is not None  # uniform: the column kernels
        assert list(fused.on_batch(batch)) == []
        assert project.stats.snapshot() == {
            "tuples_in": 8, "tuples_out": 0, "errors": 8,
            "timer_firings": 0, "controls_issued": 0,
        }


class TestValidate:
    def test_passing_rules(self, make_tuple):
        op = ValidateOperator(["temperature > -50", "humidity >= 0"])
        assert len(op.on_tuple(make_tuple(0))) == 1
        assert op.stats.errors == 0

    def test_violation_quarantined(self, make_tuple):
        op = ValidateOperator(["humidity <= 1.0"])
        out = op.on_tuple(make_tuple(0, humidity=1.5))
        assert out == []
        assert op.stats.errors == 1

    def test_pattern_rule(self, make_tuple):
        op = ValidateOperator(["matches(station, 'station-[0-9]+')"])
        assert op.on_tuple(make_tuple(0, station="station-12"))
        assert not op.on_tuple(make_tuple(1, station="bad name"))

    def test_all_rules_must_hold(self, make_tuple):
        op = ValidateOperator(["temperature > 0", "humidity > 0.9"])
        assert not op.on_tuple(make_tuple(0, temperature=5.0, humidity=0.5))

    def test_no_rules_raises(self):
        with pytest.raises(DataflowError):
            ValidateOperator([])

    def test_stream_continues_after_violations(self, make_tuple):
        op = ValidateOperator(["humidity <= 1.0"])
        op.on_tuple(make_tuple(0, humidity=2.0))
        assert op.on_tuple(make_tuple(1, humidity=0.5))
