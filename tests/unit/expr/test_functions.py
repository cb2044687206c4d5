"""Unit tests for the built-in function registry."""

import pytest

from repro.errors import EvaluationError, UnknownFunctionError
from repro.expr.compile import compile_expression
from repro.expr.functions import DEFAULT_FUNCTIONS, FunctionRegistry
from repro.schema.types import AttributeType


def ev(source, values=None):
    return compile_expression(source).evaluate(values or {})


class TestMath:
    def test_basics(self):
        assert ev("abs(-3.5)") == 3.5
        assert ev("sqrt(16)") == 4.0
        assert ev("floor(3.7)") == 3
        assert ev("ceil(3.2)") == 4
        assert ev("round(3.456)") == 3
        assert ev("round(3.456, 2)") == 3.46
        assert ev("pow(2, 10)") == 1024.0
        assert ev("min(3, 7)") == 3
        assert ev("max(3, 7)") == 7
        assert ev("clamp(15, 0, 10)") == 10

    def test_log_exp_inverse(self):
        assert ev("log(exp(2.5))") == pytest.approx(2.5)

    def test_sqrt_negative_is_evaluation_error(self):
        with pytest.raises(EvaluationError):
            ev("sqrt(-1)")


class TestStrings:
    def test_basics(self):
        assert ev("upper('rain')") == "RAIN"
        assert ev("lower('RAIN')") == "rain"
        assert ev("trim('  x ')") == "x"
        assert ev("length('abcd')") == 4
        assert ev("contains('heavy rain', 'rain')") is True
        assert ev("startswith('osaka-temp', 'osaka')") is True
        assert ev("endswith('osaka-temp', 'temp')") is True
        assert ev("replace('a-b', '-', '_')") == "a_b"
        assert ev("concat('a', 'b')") == "ab"

    def test_str_conversion(self):
        assert ev("str(42)") == "42"
        assert ev("str(2.0)") == "2"
        assert ev("str(true)") == "true"


class TestTemporal:
    def test_hour_minute_day(self):
        t = 2 * 86400.0 + 3 * 3600.0 + 25 * 60.0
        assert ev("hour_of(t)", {"t": t}) == 3
        assert ev("minute_of(t)", {"t": t}) == 25
        assert ev("day_of(t)", {"t": t}) == 2

    def test_align(self):
        assert ev("align(3725.0, 'hour')") == 3600.0


class TestSpatialAndUnits:
    def test_distance(self):
        d = ev("distance_m(34.69, 135.50, 34.69, 135.51)")
        assert 800 < d < 1000  # ~0.9 km per 0.01 deg longitude at 34.7N

    def test_convert(self):
        assert ev("convert(100, 'yard', 'meter')") == pytest.approx(91.44)

    def test_convert_bad_units_is_evaluation_error(self):
        with pytest.raises(EvaluationError):
            ev("convert(1, 'meter', 'celsius')")


class TestValidationHelpers:
    def test_matches(self):
        assert ev("matches('2016-03-15', '[0-9]{4}-[0-9]{2}-[0-9]{2}')") is True
        assert ev("matches('15/03/2016', '[0-9]{4}-[0-9]{2}-[0-9]{2}')") is False

    def test_matches_bad_pattern_raises(self):
        with pytest.raises(EvaluationError, match="invalid pattern"):
            ev("matches('x', '(unclosed')")

    def test_between(self):
        assert ev("between(5, 0, 10)") is True
        assert ev("between(-1, 0, 10)") is False

    def test_is_finite(self):
        assert ev("is_finite(1.5)") is True
        assert ev("is_finite(1e308 * 10)") is False


class TestConditionals:
    def test_if(self):
        assert ev("if(x > 0, x, -x)", {"x": -5}) == 5

    def test_coalesce(self):
        assert ev("coalesce(x, 0)", {"x": None}) == 0
        assert ev("coalesce(x, 0)", {"x": 7}) == 7


class TestRegistry:
    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError, match="unknown function"):
            ev("frobnicate(1)")

    def test_wrong_arity(self):
        with pytest.raises(UnknownFunctionError, match="argument"):
            ev("abs(1, 2)")

    def test_names_sorted(self):
        names = DEFAULT_FUNCTIONS.names()
        assert names == sorted(names)
        assert "convert" in names

    def test_custom_registration_and_duplicate(self):
        registry = FunctionRegistry()
        registry.register("twice", (AttributeType.FLOAT,), AttributeType.FLOAT,
                          lambda x: 2 * x)
        assert registry.call("twice", [21]) == 42
        with pytest.raises(UnknownFunctionError, match="already registered"):
            registry.register("twice", (AttributeType.FLOAT,),
                              AttributeType.FLOAT, lambda x: x)

    def test_overload_by_arity(self):
        sig1 = DEFAULT_FUNCTIONS.signature("round", 1)
        sig2 = DEFAULT_FUNCTIONS.signature("round", 2)
        assert sig1.arity == 1 and sig2.arity == 2
