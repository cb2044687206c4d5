"""Unit tests for static type checking against schemas."""

import pytest

from repro.errors import TypeMismatchError, UnknownAttributeError
from repro.expr.compile import compile_expression
from repro.schema.schema import StreamSchema
from repro.schema.types import AttributeType


@pytest.fixture
def schema():
    return StreamSchema.build(
        {"temp": "float", "count": "int", "name": "string", "ok": "bool"}
    )


class TestTypes:
    def test_comparison_is_bool(self, schema):
        assert (
            compile_expression("temp > 24").type_check(schema)
            is AttributeType.BOOL
        )

    def test_arithmetic_widens(self, schema):
        assert (
            compile_expression("count + 1").type_check(schema)
            is AttributeType.INT
        )
        assert (
            compile_expression("count + 1.5").type_check(schema)
            is AttributeType.FLOAT
        )
        assert (
            compile_expression("count / 2").type_check(schema)
            is AttributeType.FLOAT
        )

    def test_string_concat(self, schema):
        assert (
            compile_expression("name + '!'").type_check(schema)
            is AttributeType.STRING
        )

    def test_function_return_type(self, schema):
        assert (
            compile_expression("length(name)").type_check(schema)
            is AttributeType.INT
        )


class TestRejections:
    def test_unknown_attribute(self, schema):
        with pytest.raises(UnknownAttributeError, match="no attribute"):
            compile_expression("missing > 1").type_check(schema)

    def test_string_compared_to_number(self, schema):
        with pytest.raises(TypeMismatchError):
            compile_expression("name > 3").type_check(schema)

    def test_arithmetic_on_string(self, schema):
        with pytest.raises(TypeMismatchError):
            compile_expression("name * 2").type_check(schema)

    def test_logical_on_number(self, schema):
        with pytest.raises(TypeMismatchError):
            compile_expression("temp and ok").type_check(schema)

    def test_not_on_number(self, schema):
        with pytest.raises(TypeMismatchError):
            compile_expression("not temp").type_check(schema)

    def test_function_argument_type(self, schema):
        with pytest.raises(TypeMismatchError, match="argument 1"):
            compile_expression("upper(temp)").type_check(schema)

    def test_ordering_bools_allowed_equality_everything(self, schema):
        compile_expression("ok == true").type_check(schema)


class TestCheckBoolean:
    def test_accepts_condition(self, schema):
        compile_expression("temp > 24 and ok").check_boolean(schema)

    def test_rejects_value_expression(self, schema):
        with pytest.raises(TypeMismatchError, match="expected bool"):
            compile_expression("temp + 1").check_boolean(schema)


class TestQualifiedScopes:
    def test_join_predicate(self, schema):
        other = StreamSchema.build({"temp": "float", "road": "string"})
        compile_expression("left.temp > right.temp").check_boolean(
            left=schema, right=other
        )

    def test_unknown_qualifier(self, schema):
        with pytest.raises(UnknownAttributeError, match="unknown qualifier"):
            compile_expression("center.temp > 1").type_check(
                left=schema, right=schema
            )

    def test_unqualified_in_two_stream_context(self, schema):
        with pytest.raises(UnknownAttributeError, match="qualify"):
            compile_expression("temp > 1").type_check(
                left=schema, right=schema
            )

    def test_unknown_attribute_in_qualifier(self, schema):
        with pytest.raises(UnknownAttributeError, match="no attribute"):
            compile_expression("left.missing > 1").type_check(left=schema)
