"""Unit tests for the lowering (:mod:`repro.expr.compile`).

The expression oracle pins generated code ≡ tree walker on random trees;
these pin constant folding, the error taxonomy and messages,
short-circuit order and the compile-once contract.
"""

import pytest

from repro.errors import EvaluationError, UnknownAttributeError
from repro.expr import compile as compile_module
from repro.expr.compile import CompiledExpression, compile_expression
from tests.oracle.interpreter import interpret


def generated_source(expr) -> str:
    return expr.prepare()._fast.__expr_source__


def both_raise(expr, values, exc_type, match):
    """Generated code and oracle raise the same error and message."""
    with pytest.raises(exc_type, match=match) as compiled:
        expr.evaluate(values)
    with pytest.raises(exc_type, match=match) as interpreted:
        interpret(expr, values)
    assert str(compiled.value) == str(interpreted.value)


class TestConstantFolding:
    def test_constant_subtree_folds(self):
        expr = compile_expression("temperature > 2 * 3 + 4")
        source = generated_source(expr)
        assert "(10)" in source
        assert "2" not in source.replace("_t2", "").replace("(10)", "")
        assert expr.evaluate({"temperature": 11}) is True

    def test_fully_constant_expression(self):
        expr = compile_expression("1 + 2 == 3")
        assert expr.evaluate({}) is True
        assert expr.evaluate({}) == interpret(expr, {})

    def test_failing_subtree_stays_dynamic(self):
        # 1/0 cannot fold; the error must surface at evaluation time with
        # the oracle's message.
        expr = compile_expression("1 / 0 > 0")
        both_raise(expr, {}, EvaluationError, "division by zero")

    def test_failing_subtree_behind_short_circuit_never_runs(self):
        expr = compile_expression("false and 1 / 0 > 0")
        assert expr.evaluate({}) is False
        assert interpret(expr, {}) is False

    def test_a_folded_constant_is_what_its_generated_code_returns(
        self, monkeypatch
    ):
        # Folding runs each maximal constant subtree's own generated code
        # once; nudging what that code returns nudges the folded constant.
        runs = []
        lower = compile_module._lower

        def nudged(root, functions, fold):
            closure = lower(root, functions, fold)
            if fold:
                return closure
            runs.append(root.unparse())
            return lambda values, qualified: closure(values, qualified) + 1

        monkeypatch.setattr(compile_module, "_lower", nudged)
        expr = compile_expression("temperature > 2 * 3 + 4")
        assert "(11)" in generated_source(expr)
        assert runs == ["((2 * 3) + 4)"]

    def test_folding_calls_registry_functions(self):
        expr = compile_expression("contains('umeda-north', 'umeda')")
        assert expr.evaluate({}) is True


class TestErrorParity:
    def test_missing_attribute(self):
        both_raise(compile_expression("ghost > 1"), {},
                   UnknownAttributeError, "no attribute 'ghost'")

    def test_unbound_qualifier(self):
        both_raise(compile_expression("left.temp > 1"), {},
                   UnknownAttributeError, "unbound qualifier 'left'")

    def test_missing_qualified_attribute(self):
        expr = compile_expression("left.ghost > 1").prepare()
        with pytest.raises(UnknownAttributeError, match="left.ghost") as c:
            expr.evaluate({}, left={"temp": 1})
        with pytest.raises(UnknownAttributeError, match="left.ghost") as i:
            interpret(expr, {}, left={"temp": 1})
        assert str(c.value) == str(i.value)

    def test_logic_needs_boolean(self):
        both_raise(compile_expression("a and true"), {"a": 3},
                   EvaluationError, "'and' needs a boolean")

    def test_arithmetic_needs_number(self):
        both_raise(compile_expression("a * 2"), {"a": "x"},
                   EvaluationError, "'\\*' needs a number")

    def test_bool_is_not_a_number(self):
        both_raise(compile_expression("a + 1"), {"a": True},
                   EvaluationError, "'\\+' needs a number")

    def test_incomparable_types(self):
        both_raise(compile_expression("a < b"), {"a": 1, "b": "x"},
                   EvaluationError, "cannot compare")

    def test_in_needs_strings(self):
        both_raise(compile_expression("a in b"), {"a": 1, "b": "xyz"},
                   EvaluationError, "'in' needs strings")

    def test_division_by_zero_by_attribute(self):
        both_raise(compile_expression("a / b"), {"a": 1, "b": 0},
                   EvaluationError, "division by zero")

    def test_function_failure_wrapped(self):
        both_raise(compile_expression("round(a, 'x')"), {"a": 1.5},
                   EvaluationError, "failed")

    def test_unknown_function_deferred_to_runtime(self):
        both_raise(compile_expression("frobnicate(a)"), {"a": 1},
                   Exception, "frobnicate")


class TestSemanticsParity:
    def test_none_comparisons_are_false(self):
        expr = compile_expression("a < 5")
        assert expr.evaluate({"a": None}) is False
        assert interpret(expr, {"a": None}) is False

    def test_string_concatenation(self):
        expr = compile_expression("a + '-suffix'")
        assert expr.evaluate({"a": "x"}) == "x-suffix"

    def test_short_circuit_skips_right_error(self):
        # The right operand's missing attribute must not surface when the
        # left short-circuits — in both paths.
        expr = compile_expression("a > 10 and ghost > 1")
        assert expr.evaluate({"a": 1}) is False
        assert interpret(expr, {"a": 1}) is False
        both_raise(expr, {"a": 11}, UnknownAttributeError, "ghost")

    def test_qualified_join_predicate(self):
        expr = compile_expression("left.v == right.v and left.k < right.k")
        kwargs = {"left": {"v": 1, "k": 2}, "right": {"v": 1, "k": 5}}
        assert expr.evaluate({}, **kwargs) is True
        assert interpret(expr, {}, **kwargs) is True


class TestCompileOnce:
    def test_prepare_is_idempotent(self):
        expr = compile_expression("temperature > 24")
        assert expr.prepare() is expr
        fast = expr._fast
        expr.prepare()
        assert expr._fast is fast

    def test_evaluate_prepares_lazily(self):
        expr = compile_expression("temperature > 24")
        assert expr._fast is None
        assert expr.evaluate({"temperature": 30}) is True
        assert expr._fast is not None

    def test_generated_source_attached_for_debugging(self):
        source = generated_source(compile_expression("temperature > 24"))
        assert source.startswith("def _compiled(_V, _Q):")
        assert "'temperature'" in source


class TestOneEvaluator:
    def test_compiled_expression_has_no_interpreter(self):
        assert not hasattr(CompiledExpression, "interpret")
        assert not hasattr(compile_module, "EvalContext")
