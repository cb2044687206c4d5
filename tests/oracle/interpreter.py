"""The expression oracle: a plain tree-walking interpreter.

The reference that generated code (:mod:`repro.expr.compile`) is held
to: one ``isinstance`` dispatch per node, no folding, every rule of the
language spelled out once.  ``interpret(expr, values, **qualified)``
returns the expression's value or raises the :class:`ExpressionError`
subclass (and message) malformed input must raise.
"""

from __future__ import annotations

from repro.errors import EvaluationError, UnknownAttributeError
from repro.expr.ast import AttributeRef, BinaryOp, Call, Literal, Node, UnaryOp
from repro.expr.compile import CompiledExpression
from repro.expr.functions import FunctionRegistry


def interpret(
    expr: CompiledExpression, values: "dict | None" = None, **qualified: dict
) -> object:
    """Evaluate ``expr`` against a payload (and/or qualified payloads)."""
    return _evaluate(expr.root, values or {}, qualified, expr.functions)


def _lookup(values: dict, qualified: dict, qualifier: str, name: str) -> object:
    if qualifier:
        payload = qualified.get(qualifier)
        if payload is None:
            raise UnknownAttributeError(f"unbound qualifier {qualifier!r}")
        if name not in payload:
            raise UnknownAttributeError(f"no attribute {qualifier}.{name}")
        return payload[name]
    if name not in values:
        raise UnknownAttributeError(f"no attribute {name!r} in tuple")
    return values[name]


def _evaluate(node: Node, values: dict, qualified: dict,
              functions: FunctionRegistry) -> object:
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, AttributeRef):
        return _lookup(values, qualified, node.qualifier, node.name)
    if isinstance(node, UnaryOp):
        value = _evaluate(node.operand, values, qualified, functions)
        if node.op == "not":
            _require_bool(value, "not")
            return not value
        _require_number(value, "-")
        return -value
    if isinstance(node, BinaryOp):
        return _evaluate_binary(node, values, qualified, functions)
    if isinstance(node, Call):
        args = [_evaluate(arg, values, qualified, functions)
                for arg in node.args]
        return functions.call(node.name, args)
    raise EvaluationError(f"unknown AST node {type(node).__name__}")


def _require_bool(value: object, op: str) -> None:
    if not isinstance(value, bool):
        raise EvaluationError(f"'{op}' needs a boolean, got {value!r}")


def _require_number(value: object, op: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise EvaluationError(f"'{op}' needs a number, got {value!r}")


def _evaluate_binary(node: BinaryOp, values: dict, qualified: dict,
                     functions: FunctionRegistry) -> object:
    op = node.op
    left = _evaluate(node.left, values, qualified, functions)
    # Short-circuit logical connectives.
    if op in ("and", "or"):
        _require_bool(left, op)
        if left is (op == "or"):
            return left
        right = _evaluate(node.right, values, qualified, functions)
        _require_bool(right, op)
        return right

    right = _evaluate(node.right, values, qualified, functions)
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if op in ("<", "<=", ">", ">="):
        if left is None or right is None:
            return False
        try:
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            return left >= right
        except TypeError as exc:
            raise EvaluationError(
                f"cannot compare {left!r} {op} {right!r}: {exc}"
            ) from exc
    if op == "in":
        if not isinstance(left, str) or not isinstance(right, str):
            raise EvaluationError(f"'in' needs strings, got {left!r} in {right!r}")
        return left in right
    if op == "+":
        if isinstance(left, str) and isinstance(right, str):
            return left + right
        _require_number(left, "+")
        _require_number(right, "+")
        return left + right
    if op in ("-", "*", "/", "%"):
        _require_number(left, op)
        _require_number(right, op)
        try:
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                return left / right
            return left % right
        except ZeroDivisionError as exc:
            raise EvaluationError(f"division by zero: {node.unparse()}") from exc
    raise EvaluationError(f"unknown operator {op!r}")
