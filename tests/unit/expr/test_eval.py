"""Unit tests for expression evaluation."""

import pytest

from repro.errors import EvaluationError, UnknownAttributeError
from repro.expr.compile import compile_expression


def ev(source, values=None, **qualified):
    return compile_expression(source).evaluate(values or {}, **qualified)


class TestArithmetic:
    def test_basic(self):
        assert ev("2 + 3 * 4") == 14
        assert ev("(2 + 3) * 4") == 20
        assert ev("7 / 2") == 3.5
        assert ev("7 % 3") == 1
        assert ev("-5 + 2") == -3

    def test_attribute_arithmetic(self):
        assert ev("a * 2 + b", {"a": 3, "b": 1}) == 7

    def test_division_by_zero_is_evaluation_error(self):
        with pytest.raises(EvaluationError, match="division by zero"):
            ev("1 / x", {"x": 0})

    def test_string_concatenation(self):
        assert ev("'a' + 'b'") == "ab"

    def test_string_plus_number_raises(self):
        with pytest.raises(EvaluationError):
            ev("'a' + 1")


class TestComparisons:
    def test_numeric(self):
        assert ev("3 > 2") is True
        assert ev("2 >= 2") is True
        assert ev("2 < 2") is False
        assert ev("x != y", {"x": 1, "y": 2}) is True

    def test_strings(self):
        assert ev("'abc' < 'abd'") is True
        assert ev("s == 'rain'", {"s": "rain"}) is True

    def test_equality_across_types_is_false_not_error(self):
        assert ev("x == 'a'", {"x": 1}) is False

    def test_ordering_null_is_false(self):
        assert ev("x > 1", {"x": None}) is False

    def test_ordering_mixed_types_raises(self):
        with pytest.raises(EvaluationError, match="cannot compare"):
            ev("x > 'a'", {"x": 1})


class TestLogical:
    def test_short_circuit_and(self):
        # The right side would fail; short-circuit must prevent evaluation.
        assert ev("false and (1 / x > 0)", {"x": 0}) is False

    def test_short_circuit_or(self):
        assert ev("true or (1 / x > 0)", {"x": 0}) is True

    def test_not(self):
        assert ev("not (1 > 2)") is True

    def test_non_boolean_operand_raises(self):
        with pytest.raises(EvaluationError, match="'and' needs a boolean"):
            ev("1 and true")


class TestInOperator:
    def test_substring(self):
        assert ev("'rain' in text", {"text": "heavy rain again"}) is True
        assert ev("'snow' in text", {"text": "heavy rain"}) is False

    def test_non_string_raises(self):
        with pytest.raises(EvaluationError):
            ev("1 in text", {"text": "x1"})


class TestAttributes:
    def test_missing_attribute_raises(self):
        with pytest.raises(UnknownAttributeError):
            ev("missing > 1", {"present": 1})

    def test_qualified_lookup(self):
        assert ev("left.a + right.a", left={"a": 1}, right={"a": 2}) == 3

    def test_unbound_qualifier_raises(self):
        with pytest.raises(UnknownAttributeError, match="unbound qualifier"):
            ev("left.a", {})


class TestEvaluateBool:
    def test_non_boolean_result_raises(self):
        expr = compile_expression("a + 1")
        with pytest.raises(EvaluationError, match="non-boolean"):
            expr.evaluate_bool({"a": 1})

    def test_boolean_result(self):
        assert compile_expression("a > 1").evaluate_bool({"a": 5}) is True


class TestCompiledExpression:
    def test_reusable(self):
        expr = compile_expression("x * 2")
        assert expr.evaluate({"x": 1}) == 2
        assert expr.evaluate({"x": 21}) == 42

    def test_attributes_reported(self):
        expr = compile_expression("left.a + b + f(c)")
        assert expr.attributes() == {("left", "a"), ("", "b"), ("", "c")}

    def test_source_kept(self):
        expr = compile_expression("a  >  1")
        assert expr.source == "a  >  1"
