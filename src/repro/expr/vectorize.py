"""Vectorized expression kernels: whole-column lowering of condition ASTs.

:mod:`repro.expr.compile` lowers an AST to a closure of one payload —
the per-row unit the operators call in a loop.  This module lowers the
same AST one level further out: into a *column kernel* that takes a
struct-of-arrays batch (:class:`repro.streams.columnar.ColumnarBatch`
columns) and a selection vector, and runs the whole loop inside one
generated function.  Attribute references compile to pre-fetched local
list indexing (``_col0[_i]``) instead of a dict probe per row, and the
per-row closure call disappears entirely.

The generator reuses the scalar emitter verbatim — constant folding,
pre-bound registry calls, guard specialisation — by overriding only the
attribute-reference lowering.  Error semantics are preserved exactly:

- a reference to a column the batch does not carry raises the same
  ``UnknownAttributeError`` *at the point the evaluation reaches the
  reference* (the presence check is per row, inside the loop, so
  short-circuited references still never fire — identical laziness to
  the scalar path);
- every row evaluates under its own ``try/except ExpressionError``, so
  a failing row is quarantined individually and the rest of the column
  proceeds (the operator error-quarantine convention).

Two kernel shapes cover the operator family:

- **predicate kernels** (filter, validate): ``kernel(columns, sel) ->
  (kept_rows, error_count)`` where a row is kept iff the condition is
  exactly ``True``; non-boolean results count as errors, replicating
  ``bind_bool``'s non-boolean rejection without constructing the
  exception.
- **value kernels** (transform assignments, virtual properties):
  ``kernel(columns, sel) -> (values, error_rows)`` with ``values``
  aligned to ``sel`` (``None`` at failed positions) and ``error_rows``
  the failing row indices (usually empty).

Non-vectorizable nodes — today only qualified references (``left.temp``),
which never occur in the single-input operator family — fall back to a
per-row kernel that drives the PR 2 scalar closure over a column row
view.  The fallback raises the *real* compiled-path errors, so the
taxonomy and messages stay bit-identical; only the loop moves here.
Every kernel carries a ``vectorized`` attribute saying which path it is.

``tests/oracle/test_kernel_oracle.py`` pins column kernel ≡ row kernel
at operator level, ``tests/property/test_prop_columnar_parity.py`` end
to end through deployed flows.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import ExpressionError
from repro.expr.ast import AttributeRef, Node
from repro.expr.compile import _BASE_ENV, _Emitter
from repro.expr.eval import _NO_QUALIFIED, CompiledExpression


class _NotVectorizable(Exception):
    """Internal signal: this AST needs the per-row fallback."""


class _VectorEmitter(_Emitter):
    """The scalar emitter with references lowered to column indexing.

    Everything else — folding, guards, logical short-circuits, pre-bound
    calls — is inherited unchanged, so the per-row *body* of a kernel is
    the same bytecode the scalar closure runs.
    """

    def __init__(self, functions) -> None:
        super().__init__(functions)
        #: attribute name -> hoisted column local (``_col0 = _COLS.get(..)``).
        self.column_locals: dict[str, str] = {}

    def column_local(self, name: str) -> str:
        var = self.column_locals.get(name)
        if var is None:
            var = f"_col{len(self.column_locals)}"
            self.column_locals[name] = var
        return var

    def _emit_ref(self, node: AttributeRef, indent: int) -> str:
        if node.qualifier:
            # Qualified refs bind join payloads; columns carry exactly one
            # payload, so these expressions take the per-row fallback.
            raise _NotVectorizable(f"qualified reference {node.unparse()!r}")
        col = self.column_local(node.name)
        out = self.temp()
        # The presence check sits at the reference, not the kernel entry:
        # a short-circuited branch that never reaches the reference never
        # raises, exactly like the scalar path.
        self.line(indent, f"if {col} is None: _missing_attr({node.name!r})")
        self.line(indent, f"{out} = {col}[_i]")
        return out


def _assemble(emitter: _VectorEmitter, result: str, tail: "list[str]",
              setup: "list[str]", returns: str) -> Callable:
    lines = ["def _vkernel(_COLS, _SEL):"]
    lines += [
        f"    {var} = _COLS.get({name!r})"
        for name, var in emitter.column_locals.items()
    ]
    lines += [f"    {line}" for line in setup]
    lines += ["    for _i in _SEL:", "        try:"]
    lines += emitter.lines
    lines += [f"            _res = {result}"]
    lines += tail
    lines += [f"    return {returns}"]
    source = "\n".join(lines)
    env = dict(_BASE_ENV)
    env.update(emitter.consts)
    exec(compile(source, "<expr-vectorize>", "exec"), env)
    kernel = env["_vkernel"]
    kernel.__expr_source__ = source  # introspection / debugging aid
    return kernel


def _emit_predicate(root: Node, functions) -> "Callable | None":
    emitter = _VectorEmitter(functions)
    try:
        result = emitter.emit(root, 3)
    except _NotVectorizable:
        return None
    tail = [
        "            if _res is True:",
        "                _ka(_i)",
        "            elif _res is not False:",
        "                _err += 1",
        "        except _ExpressionError:",
        "            _err += 1",
    ]
    setup = ["_keep = []", "_ka = _keep.append", "_err = 0"]
    return _assemble(emitter, result, tail, setup, "_keep, _err")


def _emit_values(root: Node, functions) -> "Callable | None":
    emitter = _VectorEmitter(functions)
    try:
        result = emitter.emit(root, 3)
    except _NotVectorizable:
        return None
    tail = [
        "            _va(_res)",
        "        except _ExpressionError:",
        "            _va(None)",
        "            _ea(_i)",
    ]
    setup = [
        "_vals = []", "_va = _vals.append",
        "_errs = []", "_ea = _errs.append",
    ]
    return _assemble(emitter, result, tail, setup, "_vals, _errs")


class _RowView:
    """A one-row dict view over columns, for the per-row fallback.

    The compiled scalar closures read payloads through exactly one
    method — ``values.get(name, _MISSING)`` — so this view implements
    just that, re-pointed at ``columns[name][index]``.  One view is
    reused across the whole loop by re-assigning ``index``.
    """

    __slots__ = ("columns", "index")

    def __init__(self, columns: dict) -> None:
        self.columns = columns
        self.index = 0

    def get(self, name: str, default: object = None) -> object:
        column = self.columns.get(name)
        if column is None:
            return default
        return column[self.index]


def _fallback_predicate(expression: CompiledExpression) -> Callable:
    run = expression.prepare()._fast
    assert run is not None

    def kernel(columns: dict, sel: "Sequence[int]") -> "tuple[list[int], int]":
        view = _RowView(columns)
        keep: "list[int]" = []
        append = keep.append
        errors = 0
        for i in sel:
            view.index = i
            try:
                result = run(view, _NO_QUALIFIED)
            except ExpressionError:
                errors += 1
                continue
            if result is True:
                append(i)
            elif result is not False:
                errors += 1
        return keep, errors

    kernel.vectorized = False
    return kernel


def _fallback_values(expression: CompiledExpression) -> Callable:
    run = expression.prepare()._fast
    assert run is not None

    def kernel(columns: dict, sel: "Sequence[int]") -> "tuple[list, list[int]]":
        view = _RowView(columns)
        values: list = []
        errors: "list[int]" = []
        append = values.append
        for i in sel:
            view.index = i
            try:
                append(run(view, _NO_QUALIFIED))
            except ExpressionError:
                append(None)
                errors.append(i)
        return values, errors

    kernel.vectorized = False
    return kernel


def predicate_kernel(expression: CompiledExpression) -> Callable:
    """A boolean column kernel for ``expression``.

    ``kernel(columns, sel) -> (kept_rows, error_count)``: kept rows are
    exactly those where the condition evaluated to ``True``; rows whose
    evaluation raised, or returned a non-boolean, are neither kept nor
    errored silently — they add to the error count (the caller charges
    them to ``stats.errors``).  Validate derives its per-rule error count
    as ``len(sel) - len(kept)`` since every non-True row violates.
    """
    kernel = _emit_predicate(expression.root, expression.functions)
    if kernel is None:
        return _fallback_predicate(expression)
    kernel.vectorized = True
    return kernel


def values_kernel(expression: CompiledExpression) -> Callable:
    """A value column kernel for ``expression``.

    ``kernel(columns, sel) -> (values, error_rows)`` with ``values``
    aligned to ``sel`` (``None`` placeholders at failed positions) and
    ``error_rows`` listing the failing row indices.
    """
    kernel = _emit_values(expression.root, expression.functions)
    if kernel is None:
        return _fallback_values(expression)
    kernel.vectorized = True
    return kernel
