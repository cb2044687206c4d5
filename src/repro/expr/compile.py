"""Compilation of condition-language expressions to Python closures.

Non-blocking operators "are directly applied on each tuple", so
expression evaluation is the hottest code in the data plane.  This module
parses an expression once (:func:`compile_expression`) and lowers its AST
once into a plain Python function of ``(values, qualified)``, letting
CPython's bytecode do the per-tuple work.  The generated code is the one
evaluator the runtime has.

The lowering performs three optimisations:

- **constant folding**: each maximal subtree without attribute references
  is lowered on its own, its generated code runs once at compile time,
  and the result is embedded as a constant — so folding can never change
  semantics.  A subtree whose code *raises* is left dynamic, and its
  children are tried in turn, so the error still surfaces at evaluation
  time (and only if the surrounding short-circuit logic reaches it).
  Registry functions are assumed pure, which the built-in registry
  guarantees.
- **pre-resolved function lookups**: ``Call`` nodes bind the registry
  implementation at compile time instead of a name+arity lookup per call;
  unknown names/arities fall back to a runtime ``registry.call`` so the
  error and its message stay identical.
- **pre-split qualified refs**: ``left.temp`` becomes two pre-bound dict
  probes instead of string handling per evaluation.

Malformed input raises an :class:`ExpressionError` subclass whose type,
message and operand order are part of the language.  The reference for
all of it is a plain tree-walking interpreter kept with the tests
(``tests/oracle/interpreter.py``); ``tests/oracle/test_expr_oracle.py``
holds the generated code to it on random ASTs and payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.errors import (
    EvaluationError,
    ExpressionError,
    StreamLoaderError,
    TypeMismatchError,
    UnknownAttributeError,
    UnknownFunctionError,
)
from repro.expr.ast import (
    AttributeRef,
    BinaryOp,
    Call,
    Literal,
    Node,
    SchemaScope,
    UnaryOp,
)
from repro.expr.functions import DEFAULT_FUNCTIONS, FunctionRegistry
from repro.expr.parser import parse
from repro.schema.schema import StreamSchema
from repro.schema.types import AttributeType

#: Sentinel distinguishing "attribute absent" from "attribute is None".
_MISSING = object()

#: Shared empty binding for evaluations without qualified payloads (and
#: for running a folded subtree, which reads no payload at all).
#: Compiled closures only read from it.
_NO_QUALIFIED: dict = {}


# -- runtime helpers (cold paths of the generated code) ----------------------
#
# The generated code only calls into these on failure; the success path is
# pure bytecode.


def _missing_attr(name: str) -> None:
    raise UnknownAttributeError(f"no attribute {name!r} in tuple")


def _unbound_qualifier(qualifier: str) -> None:
    raise UnknownAttributeError(f"unbound qualifier {qualifier!r}")


def _missing_qualified(qualifier: str, name: str) -> None:
    raise UnknownAttributeError(f"no attribute {qualifier}.{name}")


def _not_bool(value: object, op: str) -> None:
    raise EvaluationError(f"'{op}' needs a boolean, got {value!r}")


def _not_number(value: object, op: str) -> None:
    raise EvaluationError(f"'{op}' needs a number, got {value!r}")


def _compare_failed(left: object, op: str, right: object, exc: Exception) -> None:
    raise EvaluationError(f"cannot compare {left!r} {op} {right!r}: {exc}") from exc


def _in_needs_strings(left: object, right: object) -> None:
    raise EvaluationError(f"'in' needs strings, got {left!r} in {right!r}")


def _division_by_zero(rendered: str, exc: Exception) -> None:
    raise EvaluationError(f"division by zero: {rendered}") from exc


def _call_failed(name: str, args: list, exc: Exception) -> None:
    raise EvaluationError(f"{name}({args}) failed: {exc}") from exc


def _unknown_operator(op: str) -> None:
    raise EvaluationError(f"unknown operator {op!r}")


def _unknown_node(type_name: str) -> None:
    raise EvaluationError(f"unknown AST node {type_name}")


#: Globals shared by every compiled closure.
_BASE_ENV = {
    "_M": _MISSING,
    "_ExpressionError": ExpressionError,
    "_StreamLoaderError": StreamLoaderError,
    "_missing_attr": _missing_attr,
    "_unbound_qualifier": _unbound_qualifier,
    "_missing_qualified": _missing_qualified,
    "_not_bool": _not_bool,
    "_not_number": _not_number,
    "_compare_failed": _compare_failed,
    "_in_needs_strings": _in_needs_strings,
    "_division_by_zero": _division_by_zero,
    "_call_failed": _call_failed,
    "_unknown_operator": _unknown_operator,
    "_unknown_node": _unknown_node,
    "isinstance": isinstance,
    "int": int,
    "float": float,
    "str": str,
    "TypeError": TypeError,
    "ValueError": ValueError,
    "ZeroDivisionError": ZeroDivisionError,
    "OverflowError": OverflowError,
    "__builtins__": {},
}

#: Marker for "operand value unknown until evaluation".
_DYNAMIC = object()


class _Emitter:
    """Accumulates generated statements and the constant pool."""

    def __init__(self, functions: FunctionRegistry, fold: bool = True) -> None:
        self.functions = functions
        self.fold = fold
        self.lines: list[str] = []
        self.consts: dict[str, object] = {}
        #: expression string -> compile-time-known value, for guard
        #: specialisation (skip checks that can never fire, emit
        #: unconditional raises for checks that always fire).
        self.known: dict[str, object] = {}
        self._counter = 0

    # -- plumbing ---------------------------------------------------------

    def temp(self) -> str:
        self._counter += 1
        return f"_t{self._counter}"

    def const(self, value: object) -> str:
        """Inline simple constants; pool everything else.

        Floats go through the pool: ``repr`` of ``inf``/``nan`` (possible
        results of folding) is not a valid literal.
        """
        if value is None or value is True or value is False:
            expr = repr(value)
        elif isinstance(value, int):
            expr = f"({value!r})"
        elif isinstance(value, str):
            expr = repr(value)
        else:
            expr = f"_c{len(self.consts)}"
            self.consts[expr] = value
        self.known[expr] = value
        return expr

    def value_of(self, expr: str) -> object:
        return self.known.get(expr, _DYNAMIC)

    def line(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    # -- inline guards ----------------------------------------------------

    def _guard_bool(self, indent: int, var: str, op: str) -> bool:
        """Require a boolean; returns False when the guard always raises."""
        value = self.value_of(var)
        if value is _DYNAMIC:
            self.line(
                indent,
                f"if {var} is not True and {var} is not False: "
                f"_not_bool({var}, {op!r})",
            )
            return True
        if isinstance(value, bool):
            return True
        self.line(indent, f"_not_bool({var}, {op!r})")
        return False

    def _guard_number(self, indent: int, var: str, op: str) -> bool:
        """Require a number; returns False when the guard always raises."""
        value = self.value_of(var)
        if value is _DYNAMIC:
            self.line(
                indent,
                f"if {var} is True or {var} is False or "
                f"not isinstance({var}, (int, float)): _not_number({var}, {op!r})",
            )
            return True
        if not isinstance(value, bool) and isinstance(value, (int, float)):
            return True
        self.line(indent, f"_not_number({var}, {op!r})")
        return False

    # -- node lowering -----------------------------------------------------

    def emit(self, node: Node, indent: int) -> str:
        """Lower ``node``; returns the expression/variable holding its value."""
        if self.fold:
            folded = self._try_fold(node)
            if folded is not None:
                return folded

        if isinstance(node, Literal):
            return self.const(node.value)
        if isinstance(node, AttributeRef):
            return self._emit_ref(node, indent)
        if isinstance(node, UnaryOp):
            return self._emit_unary(node, indent)
        if isinstance(node, BinaryOp):
            return self._emit_binary(node, indent)
        if isinstance(node, Call):
            return self._emit_call(node, indent)
        out = self.temp()
        self.line(indent, f"_unknown_node({type(node).__name__!r})")
        self.line(indent, f"{out} = None")
        return out

    def _try_fold(self, node: Node) -> "str | None":
        """Fold an attribute-free subtree by running its generated code.

        The subtree is lowered unfolded and executed once.  Only a
        *successful* run folds; a failing subtree stays dynamic so its
        error is raised at evaluation time (and only if the surrounding
        short-circuit logic reaches it).
        """
        if isinstance(node, Literal) or node.attributes():
            return None
        try:
            value = _lower(node, self.functions, fold=False)(
                _NO_QUALIFIED, _NO_QUALIFIED
            )
        except ExpressionError:
            return None
        return self.const(value)

    def _emit_ref(self, node: AttributeRef, indent: int) -> str:
        out = self.temp()
        if node.qualifier:
            payload = self.temp()
            self.line(indent, f"{payload} = _Q.get({node.qualifier!r})")
            self.line(
                indent,
                f"if {payload} is None: _unbound_qualifier({node.qualifier!r})",
            )
            self.line(indent, f"{out} = {payload}.get({node.name!r}, _M)")
            self.line(
                indent,
                f"if {out} is _M: "
                f"_missing_qualified({node.qualifier!r}, {node.name!r})",
            )
        else:
            self.line(indent, f"{out} = _V.get({node.name!r}, _M)")
            self.line(indent, f"if {out} is _M: _missing_attr({node.name!r})")
        return out

    def _emit_unary(self, node: UnaryOp, indent: int) -> str:
        operand = self.emit(node.operand, indent)
        out = self.temp()
        if node.op == "not":
            self._guard_bool(indent, operand, "not")
            self.line(indent, f"{out} = not {operand}")
        else:
            # Every non-'not' unary op is negation.
            self._guard_number(indent, operand, "-")
            self.line(indent, f"{out} = -{operand}")
        return out

    def _emit_binary(self, node: BinaryOp, indent: int) -> str:
        op = node.op
        if op in ("and", "or"):
            return self._emit_logical(node, indent)

        left = self.emit(node.left, indent)
        right = self.emit(node.right, indent)
        out = self.temp()

        if op in ("==", "!="):
            self.line(indent, f"{out} = {left} {op} {right}")
        elif op in ("<", "<=", ">", ">="):
            self._emit_ordered_compare(node, indent, left, right, out)
        elif op == "in":
            self.line(
                indent,
                f"if not isinstance({left}, str) or not isinstance({right}, str): "
                f"_in_needs_strings({left}, {right})",
            )
            self.line(indent, f"{out} = {left} in {right}")
        elif op == "+":
            self.line(
                indent, f"if isinstance({left}, str) and isinstance({right}, str):"
            )
            self.line(indent + 1, f"{out} = {left} + {right}")
            self.line(indent, "else:")
            self._guard_number(indent + 1, left, "+")
            self._guard_number(indent + 1, right, "+")
            self.line(indent + 1, f"{out} = {left} + {right}")
        elif op in ("-", "*"):
            self._guard_number(indent, left, op)
            self._guard_number(indent, right, op)
            self.line(indent, f"{out} = {left} {op} {right}")
        elif op in ("/", "%"):
            self._guard_number(indent, left, op)
            self._guard_number(indent, right, op)
            self.line(indent, "try:")
            self.line(indent + 1, f"{out} = {left} {op} {right}")
            self.line(indent, "except ZeroDivisionError as _e:")
            self.line(
                indent + 1,
                f"_division_by_zero({self.const(node.unparse())}, _e)",
            )
        else:
            # Unknown operator: operands evaluate first, then it raises.
            self.line(indent, f"_unknown_operator({op!r})")
            self.line(indent, f"{out} = None")
        return out

    def _emit_ordered_compare(
        self, node: BinaryOp, indent: int, left: str, right: str, out: str
    ) -> None:
        """``< <= > >=``: None operands compare False, TypeError is wrapped.

        Both operands already ran, so compile-time-known sides only shrink
        the generated None checks — never the evaluation order.
        """
        lv, rv = self.value_of(left), self.value_of(right)
        if lv is None or rv is None:
            self.line(indent, f"{out} = False")
            return
        none_tests = [f"{var} is None" for var, val in ((left, lv), (right, rv))
                      if val is _DYNAMIC]
        body = indent
        if none_tests:
            self.line(indent, f"if {' or '.join(none_tests)}:")
            self.line(indent + 1, f"{out} = False")
            self.line(indent, "else:")
            body = indent + 1
        self.line(body, "try:")
        self.line(body + 1, f"{out} = {left} {node.op} {right}")
        self.line(body, "except TypeError as _e:")
        self.line(body + 1, f"_compare_failed({left}, {node.op!r}, {right}, _e)")

    def _emit_logical(self, node: BinaryOp, indent: int) -> str:
        op = node.op
        left = self.emit(node.left, indent)
        out = self.temp()
        if not self._guard_bool(indent, left, op):
            # Left always raises, so the right operand is never reached.
            self.line(indent, f"{out} = None")
            return out
        lv = self.value_of(left)
        shorts = lv is False if op == "and" else lv is True
        if shorts:
            self.line(indent, f"{out} = {'False' if op == 'and' else 'True'}")
            return out
        if isinstance(lv, bool):
            # Left is a known constant that does not short-circuit: the
            # result is the (guarded) right operand.
            right = self.emit(node.right, indent)
            self._guard_bool(indent, right, op)
            self.line(indent, f"{out} = {right}")
            return out
        short = "False" if op == "and" else "True"
        self.line(indent, f"if {left} is {'True' if op == 'and' else 'False'}:")
        right = self.emit(node.right, indent + 1)
        self._guard_bool(indent + 1, right, op)
        self.line(indent + 1, f"{out} = {right}")
        self.line(indent, "else:")
        self.line(indent + 1, f"{out} = {short}")
        return out

    def _emit_call(self, node: Call, indent: int) -> str:
        args = [self.emit(arg, indent) for arg in node.args]
        out = self.temp()
        arg_list = ", ".join(args)
        try:
            signature = self.functions.signature(node.name, len(node.args))
        except UnknownFunctionError:
            # Unknown name/arity: defer to the registry at evaluation time,
            # after the arguments ran, so any argument error precedes the
            # registry's own.
            registry = self.const(self.functions)
            self.line(
                indent, f"{out} = {registry}.call({node.name!r}, [{arg_list}])"
            )
            return out
        impl = self.const(signature.impl)
        self.line(indent, "try:")
        self.line(indent + 1, f"{out} = {impl}({arg_list})")
        self.line(indent, "except _ExpressionError:")
        self.line(indent + 1, "raise")
        self.line(
            indent,
            "except (TypeError, ValueError, ZeroDivisionError, "
            "OverflowError, _StreamLoaderError) as _e:",
        )
        self.line(indent + 1, f"_call_failed({node.name!r}, [{arg_list}], _e)")
        return out


def _lower(
    root: Node, functions: FunctionRegistry, fold: bool
) -> Callable[[dict, dict], object]:
    emitter = _Emitter(functions, fold)
    result = emitter.emit(root, 1)
    source = "\n".join(
        ["def _compiled(_V, _Q):"] + emitter.lines + [f"    return {result}"]
    )
    env = dict(_BASE_ENV)
    env.update(emitter.consts)
    exec(compile(source, "<expr-compile>", "exec"), env)
    closure = env["_compiled"]
    closure.__expr_source__ = source  # introspection / debugging aid
    return closure


def compile_node(
    root: Node, functions: FunctionRegistry
) -> Callable[[dict, dict], object]:
    """Lower ``root`` to a closure ``f(values, qualified) -> result``.

    ``values`` binds unqualified attribute names; ``qualified`` binds
    qualifier -> payload for join predicates (``left.temp``).
    """
    return _lower(root, functions, fold=True)


@dataclass(frozen=True)
class CompiledExpression:
    """A parsed, reusable expression.

    Compile once at design/deploy time, evaluate per tuple.  ``source`` is
    kept for display in the designer and inclusion in DSN programs.
    """

    source: str
    root: Node
    functions: FunctionRegistry = field(default=DEFAULT_FUNCTIONS, compare=False)
    #: Lazily-built closure (:func:`compile_node`).
    _fast: "Callable[[dict, dict], object] | None" = field(
        default=None, compare=False, repr=False
    )

    def prepare(self) -> "CompiledExpression":
        """Force the fast evaluator to build now (operators call this at
        construction so the first tuple does not pay the lowering cost)."""
        if self._fast is None:
            object.__setattr__(self, "_fast", compile_node(self.root, self.functions))
        return self

    def evaluate(self, values: "dict | None" = None, **qualified: dict) -> object:
        """Evaluate against a payload dict (and/or qualified payloads)."""
        fast = self._fast
        if fast is None:
            fast = self.prepare()._fast
        return fast(values if values else {}, qualified)

    def evaluate_bool(self, values: "dict | None" = None, **qualified: dict) -> bool:
        result = self.evaluate(values, **qualified)
        if not isinstance(result, bool):
            raise EvaluationError(
                f"condition {self.source!r} returned non-boolean {result!r}"
            )
        return result

    # -- hot-path entries --------------------------------------------------
    #
    # ``evaluate``/``evaluate_bool`` allocate a ``**qualified`` dict on
    # every call even though per-tuple operators never pass qualified
    # payloads.  The bound closures below are for exactly that case —
    # operators grab one at construction and run it per tuple.

    def bind(self) -> "Callable[[Mapping], object]":
        """A single-payload evaluator: ``closure(values) -> result``.

        Semantically identical to ``evaluate(values)`` — same result,
        same :class:`ExpressionError` subclasses on malformed input.
        """
        fast = self.prepare()._fast
        assert fast is not None

        def run(values: "Mapping") -> object:
            return fast(values, _NO_QUALIFIED)

        return run

    def bind_bool(self) -> "Callable[[Mapping], bool]":
        """A single-payload condition: ``closure(values) -> bool``.

        Semantically identical to ``evaluate_bool(values)`` including the
        non-boolean-result error.
        """
        fast = self.prepare()._fast
        assert fast is not None
        source = self.source

        def run_bool(values: "Mapping") -> bool:
            result = fast(values, _NO_QUALIFIED)
            if result is True or result is False:
                return result
            raise EvaluationError(
                f"condition {source!r} returned non-boolean {result!r}"
            )

        return run_bool

    def type_check(
        self,
        schema: "StreamSchema | None" = None,
        **qualified: StreamSchema,
    ) -> AttributeType:
        """Static type of the expression against the given schema(s).

        Raises :class:`TypeMismatchError` / :class:`UnknownAttributeError`
        when the expression cannot run against tuples of those schemas.
        """
        scope = SchemaScope(default=schema, qualifiers=qualified or None)
        return self.root.infer_type(scope)

    def check_boolean(
        self,
        schema: "StreamSchema | None" = None,
        **qualified: StreamSchema,
    ) -> None:
        """Assert the expression is a boolean condition over the schema(s)."""
        result = self.type_check(schema, **qualified)
        if result is not AttributeType.BOOL:
            raise TypeMismatchError(
                f"condition {self.source!r} has type {result.value}, expected bool"
            )

    def attributes(self) -> set[tuple[str, str]]:
        return self.root.attributes()

    def unparse(self) -> str:
        return self.root.unparse()


def compile_expression(
    source: str, functions: "FunctionRegistry | None" = None
) -> CompiledExpression:
    """Parse ``source`` into a reusable :class:`CompiledExpression`."""
    return CompiledExpression(
        source=source,
        root=parse(source),
        functions=functions or DEFAULT_FUNCTIONS,
    )
