"""Filter — σ(s, cond): drop tuples that do not satisfy the condition."""

from __future__ import annotations

from repro.expr.eval import CompiledExpression, compile_expression
from repro.expr.vectorize import predicate_kernel
from repro.streams.base import NonBlockingOperator
from repro.streams.tuple import SensorTuple


class FilterOperator(NonBlockingOperator):
    """Table 1: *Filter out tuples in s that do not adhere to cond*.

    >>> f = FilterOperator("temperature > 24")
    >>> # tuples whose payload fails the condition are not emitted
    """

    def __init__(self, condition: "str | CompiledExpression", name: str = "") -> None:
        super().__init__(name or "filter")
        if isinstance(condition, str):
            condition = compile_expression(condition)
        # Lower to the fast evaluator now: filters run per tuple on the
        # hot path, the first reading should not pay the compile.
        self.condition = condition.prepare()
        self._predicate = self.condition.bind_bool()
        self._vpredicate = None  # column kernel, built on first columnar use

    def _process(self, tuple_: SensorTuple, port: int) -> list[SensorTuple]:
        # The predicate only reads, so it runs against the immutable
        # payload mapping directly — no per-tuple dict copy.
        if self._predicate(tuple_.payload):
            return [tuple_]
        return []

    def columnar_step(self, col, sel):
        """Column kernel: map a selection to the rows passing the condition.

        Returns ``(kept_rows, error_count)``; rows whose evaluation raised
        (or returned a non-boolean) are quarantined, exactly like the row
        loop's per-tuple ``except ExpressionError``.
        """
        kernel = self._vpredicate
        if kernel is None:
            kernel = self._vpredicate = predicate_kernel(self.condition)
        return kernel(col.columns, sel)

    def describe(self) -> str:
        return f"σ(s, {self.condition.source})"
