"""Unit tests for Transform and Validate operators.

What they emit and quarantine is a table in the Table 1 spec
(``tests/oracle/test_table1_spec.py``); the ``case`` lines run its rows.
"""

import pytest

from repro.errors import DataflowError
from repro.streams.transform import TransformOperator, ValidateOperator
from tests.oracle.test_table1_spec import case


class TestAssignments:
    test_unit_conversion = case("transform")
    test_new_attribute_via_assignment = case("transform")
    test_assignments_see_original_values_only = case("transform")
    test_error_quarantined = case("transform")


class TestRenameProject:
    test_rename = case("transform")
    test_project = case("transform")
    test_assign_rename_project_pipeline = case("transform")

    def test_empty_transform_raises(self):
        with pytest.raises(DataflowError):
            TransformOperator()


class TestProjectMissingAttribute:
    """Hostile input: a tuple lacking a projected attribute is quarantined
    — one error, that tuple dropped — on every entry point, never a
    ``KeyError`` out of the operator."""

    test_lone_tuple = case("transform")
    test_row_loop_drops_only_the_offender = case("transform")
    test_column_kernel_drops_the_uniform_batch = case("transform")


class TestValidate:
    test_passing_rules = case("validate")
    test_violation_quarantined = case("validate")
    test_pattern_rule = case("validate")
    test_all_rules_must_hold = case("validate")
    test_stream_continues_after_violations = case("validate")

    def test_no_rules_raises(self):
        with pytest.raises(DataflowError):
            ValidateOperator([])
