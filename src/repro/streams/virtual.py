"""Virtual property — ⊎ s⟨p, spec⟩: add a computed attribute.

Table 1: *"A new attribute p is added to the schema of s according to the
specification spec."*  The motivating example is apparent temperature,
computed from temperature and humidity.
"""

from __future__ import annotations

from repro.errors import DataflowError
from repro.expr.compile import CompiledExpression, compile_expression
from repro.expr.vectorize import values_kernel
from repro.streams.base import NonBlockingOperator
from repro.streams.tuple import SensorTuple

#: Ready-made specification for the paper's running example: the Steadman
#: apparent-temperature approximation from dry-bulb temperature (°C) and
#: relative humidity (fraction 0..1), with a fixed light-breeze wind term.
APPARENT_TEMPERATURE_SPEC = (
    "temperature + 0.33 * (humidity * 6.105 * exp(17.27 * temperature "
    "/ (237.7 + temperature))) - 4.0"
)


class VirtualPropertyOperator(NonBlockingOperator):
    """Add attribute ``property_name`` computed by ``spec`` to each tuple.

    >>> op = VirtualPropertyOperator(
    ...     "apparent_temperature", APPARENT_TEMPERATURE_SPEC)
    """

    def __init__(
        self,
        property_name: str,
        spec: "str | CompiledExpression",
        name: str = "",
    ) -> None:
        super().__init__(name or "virtual-property")
        if not property_name:
            raise DataflowError("virtual property needs a property name")
        self.property_name = property_name
        spec = compile_expression(spec) if isinstance(spec, str) else spec
        self.spec = spec.prepare()
        self._evaluate = self.spec.bind()
        self._vspec = None  # column kernel, built on first columnar use

    def _process(self, tuple_: SensorTuple, port: int) -> list[SensorTuple]:
        payload = tuple_.payload
        name = self.property_name
        if name in payload:
            # Collides with an existing attribute: quarantine, the schema
            # checker would have rejected this dataflow at design time.
            self.stats.errors += 1
            return []
        value = self._evaluate(payload)
        updated = dict(payload)
        updated[name] = value
        return [tuple_.with_owned_payload(updated)]

    def columnar_step(self, col, sel):
        """Column kernel: compute the property for the selection, append
        it as a new column.

        A name collision quarantines *every* selected row (the schema is
        uniform across a columnar batch, so the row path would collide on
        each one); evaluation failures quarantine per row.
        """
        name = self.property_name
        if name in col.fields:
            return [], len(sel)
        kernel = self._vspec
        if kernel is None:
            kernel = self._vspec = values_kernel(self.spec)
        vals, errs = kernel(col.columns, sel)
        count = col.count
        errors = 0
        if len(sel) == count and not errs:
            col.set_column(name, vals)
            return sel, 0
        column = [None] * count
        if errs:
            bad = set(errs)
            errors = len(bad)
            for pos, i in enumerate(sel):
                if i not in bad:
                    column[i] = vals[pos]
            sel = [i for i in sel if i not in bad]
        else:
            for pos, i in enumerate(sel):
                column[i] = vals[pos]
        col.set_column(name, column)
        return sel, errors

    def describe(self) -> str:
        return f"⊎s⟨{self.property_name}, {self.spec.source}⟩"
