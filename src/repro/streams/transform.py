"""Transform — ▷trans s: apply a transformation function to every tuple.

The paper's requirement list for the transform family: "(1) changing the
unit of measure (e.g. from yards to meters) or geographical coordinates
(from one standard to another one); ... (3) checking that data conform to
given validation rules (e.g. dates conforming to given patterns)".

:class:`TransformOperator` covers (1) declaratively: a set of attribute
assignments in the condition language (each can overwrite an existing
attribute or be combined with renames/projection).  Unit and coordinate
conversions are expression built-ins (``convert``, see
:mod:`repro.expr.functions`).  :class:`ValidateOperator` covers (3).
"""

from __future__ import annotations

from repro.errors import DataflowError, UnknownAttributeError
from repro.expr.compile import CompiledExpression, compile_expression
from repro.expr.vectorize import predicate_kernel, values_kernel
from repro.streams.base import NonBlockingOperator
from repro.streams.tuple import SensorTuple


class TransformOperator(NonBlockingOperator):
    """Rewrite tuple payloads: assignments, then renames, then projection.

    Args:
        assignments: attribute -> expression over the *input* payload.
            All expressions see the original values (no chaining within one
            tuple), so assignment order never matters.
        rename: old name -> new name, applied after assignments.
        project: if given, keep only these attributes (post-rename names).

    >>> op = TransformOperator({"length_m": "convert(length_yd, 'yard', 'meter')"})
    """

    def __init__(
        self,
        assignments: "dict[str, str | CompiledExpression] | None" = None,
        rename: "dict[str, str] | None" = None,
        project: "list[str] | None" = None,
        name: str = "",
    ) -> None:
        super().__init__(name or "transform")
        if not assignments and not rename and not project:
            raise DataflowError(
                "transform needs at least one of assignments/rename/project"
            )
        self.assignments = {
            attr: (compile_expression(expr) if isinstance(expr, str) else expr).prepare()
            for attr, expr in (assignments or {}).items()
        }
        self.rename = dict(rename or {})
        self.project = list(project) if project is not None else None
        self._assign = [
            (attr, expr.bind()) for attr, expr in self.assignments.items()
        ]
        self._vassign = None  # column kernels, built on first columnar use

    def _process(self, tuple_: SensorTuple, port: int) -> list[SensorTuple]:
        # Assignments see the original (immutable) payload — evaluating
        # against it directly both skips a dict copy and makes the
        # order-independence guarantee structural.
        values = tuple_.payload
        updated = dict(values)
        for attr, evaluate in self._assign:
            updated[attr] = evaluate(values)
        if self.rename:
            updated = {
                self.rename.get(name, name): value for name, value in updated.items()
            }
        if self.project is not None:
            try:
                updated = {name: updated[name] for name in self.project}
            except KeyError as missing:
                # Hostile input: quarantined like any failed expression.
                raise UnknownAttributeError(
                    f"no attribute {missing.args[0]!r} to project"
                ) from None
        return [tuple_.with_owned_payload(updated)]

    def columnar_step(self, col, sel):
        """Column kernels: evaluate every assignment over the selection,
        then apply rename/project as whole-column dict operations.

        A row failing *any* assignment is quarantined whole-row, as the
        row kernel does by raising out of ``_process``.  Assignment
        kernels all read the pre-image columns (installs happen after all
        evaluations), which makes the order-independence guarantee
        structural here too.
        """
        kernels = self._vassign
        if kernels is None:
            kernels = self._vassign = [
                (attr, values_kernel(expr))
                for attr, expr in self.assignments.items()
            ]
        errors = 0
        if kernels:
            columns = col.columns
            count = col.count
            results = [kernel(columns, sel) for _, kernel in kernels]
            bad: "set[int]" = set()
            for _, errs in results:
                bad.update(errs)
            full = len(sel) == count and not bad
            for (attr, _), (vals, _) in zip(kernels, results):
                if full:
                    # Selection covers every row in order: the kernel's
                    # output is already row-aligned.
                    col.set_column(attr, vals)
                    continue
                column = [None] * count
                if bad:
                    for pos, i in enumerate(sel):
                        if i not in bad:
                            column[i] = vals[pos]
                else:
                    for pos, i in enumerate(sel):
                        column[i] = vals[pos]
                col.set_column(attr, column)
            if bad:
                errors = len(bad)
                sel = [i for i in sel if i not in bad]
        if self.rename:
            col.rename_columns(self.rename)
        if self.project is not None:
            if any(name not in col.columns for name in self.project):
                # Uniform schema: every remaining row lacks the attribute.
                return [], errors + len(sel)
            col.project_columns(self.project)
        return sel, errors

    def describe(self) -> str:
        parts = [f"{attr}:={expr.source}" for attr, expr in self.assignments.items()]
        parts += [f"{old}->{new}" for old, new in self.rename.items()]
        if self.project is not None:
            parts.append(f"project[{','.join(self.project)}]")
        return f"▷trans({'; '.join(parts)})"


class ValidateOperator(NonBlockingOperator):
    """Check tuples against validation rules; quarantine violators.

    Each rule is a boolean expression; a tuple failing any rule is dropped
    and counted in ``stats.errors`` (the error-quarantine convention), so a
    bad reading never propagates into the warehouse.
    """

    def __init__(
        self, rules: "list[str | CompiledExpression]", name: str = ""
    ) -> None:
        super().__init__(name or "validate")
        if not rules:
            raise DataflowError("validate needs at least one rule")
        self.rules = [
            (compile_expression(rule) if isinstance(rule, str) else rule).prepare()
            for rule in rules
        ]
        self._checks = [rule.bind_bool() for rule in self.rules]
        self._vchecks = None  # column kernels, built on first columnar use

    def _process(self, tuple_: SensorTuple, port: int) -> list[SensorTuple]:
        values = tuple_.payload  # rules only read; no per-tuple copy
        for check in self._checks:
            if not check(values):
                self.stats.errors += 1
                return []
        return [tuple_]

    def columnar_step(self, col, sel):
        """Column kernels: narrow the selection through each rule in turn.

        Rule *k* only evaluates rows that passed rules *1..k-1* — the same
        evaluation set as the row kernel's first-violation ``return`` — and
        every non-True row (violation, evaluation failure, non-boolean)
        counts as an error, matching validate's quarantine convention.
        """
        kernels = self._vchecks
        if kernels is None:
            kernels = self._vchecks = [
                predicate_kernel(rule) for rule in self.rules
            ]
        errors = 0
        columns = col.columns
        for kernel in kernels:
            kept, _ = kernel(columns, sel)
            errors += len(sel) - len(kept)
            sel = kept
            if not sel:
                break
        return sel, errors

    def describe(self) -> str:
        rules = " ∧ ".join(rule.source for rule in self.rules)
        return f"validate({rules})"
