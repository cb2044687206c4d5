"""Declarative operator specifications for the conceptual dataflow.

A spec is the design-time twin of a runtime operator: it holds the
parameters the user typed into the canvas, knows how to type-check them
against the upstream schema(s), how to infer its output schema, how to
build the runtime operator, and how to (de)serialize itself for the canvas
document and the DSN program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real

from repro.errors import DataflowError, SchemaError
from repro.expr.compile import compile_expression
from repro.schema.infer import (
    AGGREGATION_FUNCTIONS,
    aggregate_schema,
    join_schema,
    with_virtual_property,
)
from repro.schema.schema import Attribute, StreamSchema
from repro.schema.types import AttributeType
from repro.streams.aggregate import AggregationOperator
from repro.streams.base import Operator
from repro.streams.cull import CullSpaceOperator, CullTimeOperator
from repro.streams.filter import FilterOperator
from repro.streams.join import JoinOperator
from repro.streams.transform import TransformOperator, ValidateOperator
from repro.streams.trigger import TriggerOffOperator, TriggerOnOperator
from repro.streams.virtual import VirtualPropertyOperator


def statistics_schema(schema: StreamSchema) -> StreamSchema:
    """The window-statistics schema trigger conditions are checked against.

    See :mod:`repro.streams.trigger`: ``count`` plus, for numeric
    attributes, ``avg_/min_/max_/sum_/last_`` columns, and ``last_`` for
    the rest.
    """
    attrs: list[Attribute] = [Attribute("count", AttributeType.INT)]
    for attr in schema.attributes:
        if attr.type.is_numeric:
            for prefix in ("avg", "min", "max", "sum"):
                attrs.append(
                    Attribute(f"{prefix}_{attr.name}", AttributeType.FLOAT, attr.unit)
                )
        attrs.append(Attribute(f"last_{attr.name}", attr.type, attr.unit))
    return StreamSchema(
        attributes=tuple(attrs),
        temporal_granularity=schema.temporal_granularity,
        spatial_granularity=schema.spatial_granularity,
        themes=schema.themes,
    )


class OperatorSpec:
    """Base class for Table 1 operator specifications."""

    #: Canonical kind tag used in serialization and DSN programs.
    kind: str = ""
    input_count: int = 1
    #: Whether the spec has data output (triggers do not).
    has_output: bool = True

    def infer_schema(self, inputs: "list[StreamSchema]") -> "StreamSchema | None":
        """Output schema given input schemas; None for control-only specs.

        Raises :class:`SchemaError`/:class:`DataflowError` on inconsistent
        parameters — the consistency check turns those into canvas issues.
        """
        raise NotImplementedError

    def build_operator(self) -> Operator:
        """Instantiate the runtime operator for deployment."""
        raise NotImplementedError

    def params(self) -> dict:
        """JSON-serializable parameter dict (without the kind tag)."""
        raise NotImplementedError

    def partition_keys(self) -> "tuple[str, ...] | None":
        """Key attributes a sharded deployment partitions on, or None.

        None means the operator cannot be sharded: it is non-blocking, or
        blocking without a key the partitioner could split the tuple
        space on (an ungrouped aggregation, a join with no equi-conjunct).
        """
        return None

    def combine_safe(self) -> bool:
        """Whether a hot partition key may be *split* across replicas.

        True only when one key's tuples can be processed independently on
        several shards and the resulting partial outputs folded back into
        the unsharded result by the merge's combine stage.  Default False:
        splitting is opt-in per spec, never assumed.
        """
        return False

    def to_dict(self) -> dict:
        return {"kind": self.kind, **self.params()}

    def describe(self) -> str:
        return self.build_operator().describe()

    def _check_inputs(self, inputs: "list[StreamSchema]") -> None:
        if len(inputs) != self.input_count:
            raise DataflowError(
                f"{self.kind} takes {self.input_count} input(s), got {len(inputs)}"
            )


def _require_positive(spec: OperatorSpec, *names: str) -> None:
    """Refuse a time or rate parameter that is not a finite positive
    number; an unset (``None``) ``window`` is left alone."""
    for name in names:
        value = getattr(spec, name)
        if name == "window" and value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, Real) \
                or not 0 < value < math.inf:
            raise DataflowError(f"{spec.kind} {name} must be a finite "
                                f"positive number, got {value!r}")


@dataclass(frozen=True)
class FilterSpec(OperatorSpec):
    """σ(s, cond)."""

    condition: str

    kind = "filter"

    def infer_schema(self, inputs: "list[StreamSchema]") -> StreamSchema:
        self._check_inputs(inputs)
        compile_expression(self.condition).check_boolean(inputs[0])
        return inputs[0]

    def build_operator(self) -> Operator:
        return FilterOperator(self.condition)

    def params(self) -> dict:
        return {"condition": self.condition}


@dataclass(frozen=True)
class TransformSpec(OperatorSpec):
    """▷trans s — assignments / renames / projection."""

    assignments: "dict[str, str]" = field(default_factory=dict)
    rename: "dict[str, str]" = field(default_factory=dict)
    project: "tuple[str, ...] | None" = None

    kind = "transform"

    def __post_init__(self) -> None:
        if not self.assignments and not self.rename and self.project is None:
            raise DataflowError(
                "transform needs at least one of assignments/rename/project"
            )
        if self.project is not None:
            object.__setattr__(self, "project", tuple(self.project))

    def infer_schema(self, inputs: "list[StreamSchema]") -> StreamSchema:
        self._check_inputs(inputs)
        schema = inputs[0]
        attrs = list(schema.attributes)
        for name, source in self.assignments.items():
            expr = compile_expression(source)
            new_type = expr.type_check(schema)
            for index, attr in enumerate(attrs):
                if attr.name == name:
                    unit = attr.unit if new_type.is_numeric else ""
                    attrs[index] = Attribute(name, new_type, unit, attr.nullable)
                    break
            else:
                attrs.append(Attribute(name, new_type))
        result = StreamSchema(
            attributes=tuple(attrs),
            temporal_granularity=schema.temporal_granularity,
            spatial_granularity=schema.spatial_granularity,
            themes=schema.themes,
        )
        if self.rename:
            from repro.schema.infer import rename_schema

            result = rename_schema(result, dict(self.rename))
        if self.project is not None:
            result = result.project(list(self.project))
        return result

    def build_operator(self) -> Operator:
        return TransformOperator(
            assignments=dict(self.assignments),
            rename=dict(self.rename),
            project=list(self.project) if self.project is not None else None,
        )

    def params(self) -> dict:
        return {
            "assignments": dict(self.assignments),
            "rename": dict(self.rename),
            "project": list(self.project) if self.project is not None else None,
        }


@dataclass(frozen=True)
class ValidateSpec(OperatorSpec):
    """Validation rules (the transform family's rule-checking face)."""

    rules: tuple[str, ...]

    kind = "validate"

    def __post_init__(self) -> None:
        if not self.rules:
            raise DataflowError("validate needs at least one rule")
        object.__setattr__(self, "rules", tuple(self.rules))

    def infer_schema(self, inputs: "list[StreamSchema]") -> StreamSchema:
        self._check_inputs(inputs)
        for rule in self.rules:
            compile_expression(rule).check_boolean(inputs[0])
        return inputs[0]

    def build_operator(self) -> Operator:
        return ValidateOperator(list(self.rules))

    def params(self) -> dict:
        return {"rules": list(self.rules)}


@dataclass(frozen=True)
class VirtualPropertySpec(OperatorSpec):
    """⊎ s⟨p, spec⟩."""

    property_name: str
    spec: str

    kind = "virtual-property"

    def infer_schema(self, inputs: "list[StreamSchema]") -> StreamSchema:
        self._check_inputs(inputs)
        expr = compile_expression(self.spec)
        value_type = expr.type_check(inputs[0])
        return with_virtual_property(inputs[0], self.property_name, value_type)

    def build_operator(self) -> Operator:
        return VirtualPropertyOperator(self.property_name, self.spec)

    def params(self) -> dict:
        return {"property_name": self.property_name, "spec": self.spec}


@dataclass(frozen=True)
class CullTimeSpec(OperatorSpec):
    """γr(s, ⟨t1, t2⟩)."""

    rate: int
    start: float
    end: float

    kind = "cull-time"

    def __post_init__(self) -> None:
        _require_positive(self, "rate")

    def infer_schema(self, inputs: "list[StreamSchema]") -> StreamSchema:
        self._check_inputs(inputs)
        if self.end < self.start:
            raise DataflowError(
                f"cull-time interval end ({self.end}) precedes start ({self.start})"
            )
        if self.rate < 1:
            raise DataflowError(f"cull-time rate must be >= 1, got {self.rate}")
        return inputs[0]

    def build_operator(self) -> Operator:
        return CullTimeOperator(rate=self.rate, start=self.start, end=self.end)

    def params(self) -> dict:
        return {"rate": self.rate, "start": self.start, "end": self.end}


@dataclass(frozen=True)
class CullSpaceSpec(OperatorSpec):
    """γr(s, ⟨coord1, coord2⟩)."""

    rate: int
    corner1: tuple[float, float]
    corner2: tuple[float, float]

    kind = "cull-space"

    def __post_init__(self) -> None:
        _require_positive(self, "rate")

    def infer_schema(self, inputs: "list[StreamSchema]") -> StreamSchema:
        self._check_inputs(inputs)
        if self.rate < 1:
            raise DataflowError(f"cull-space rate must be >= 1, got {self.rate}")
        self.build_operator()  # validates coordinates
        return inputs[0]

    def build_operator(self) -> Operator:
        return CullSpaceOperator(
            rate=self.rate, corner1=tuple(self.corner1), corner2=tuple(self.corner2)
        )

    def params(self) -> dict:
        return {
            "rate": self.rate,
            "corner1": list(self.corner1),
            "corner2": list(self.corner2),
        }


@dataclass(frozen=True)
class AggregationSpec(OperatorSpec):
    """@t,{a1..an} op (s), optionally grouped and/or sliding.

    ``group_by`` emits one tuple per key per window; ``window`` (>=
    interval) computes over a sliding lookback instead of tumbling.
    """

    interval: float
    attributes: tuple[str, ...]
    function: str
    group_by: "str | None" = None
    window: "float | None" = None

    kind = "aggregation"

    def __post_init__(self) -> None:
        _require_positive(self, "interval", "window")
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "function", self.function.upper())
        if self.function not in AGGREGATION_FUNCTIONS:
            raise DataflowError(
                f"unknown aggregation function {self.function!r}; "
                f"known: {', '.join(AGGREGATION_FUNCTIONS)}"
            )

    def infer_schema(self, inputs: "list[StreamSchema]") -> StreamSchema:
        self._check_inputs(inputs)
        if self.window is not None and self.window < self.interval:
            raise DataflowError(
                f"aggregation window ({self.window}) must cover at least "
                f"one flush interval ({self.interval})"
            )
        return aggregate_schema(
            inputs[0], list(self.attributes), self.function, self.interval,
            group_by=self.group_by,
        )

    def build_operator(self) -> Operator:
        return AggregationOperator(
            interval=self.interval,
            attributes=list(self.attributes),
            function=self.function,
            group_by=self.group_by,
            window=self.window,
        )

    def partition_keys(self) -> "tuple[str, ...] | None":
        # Grouped windows shard cleanly: a group lives wholly on the
        # shard that owns its key.  Ungrouped aggregation is one global
        # group and cannot be split.
        return (self.group_by,) if self.group_by is not None else None

    def combine_safe(self) -> bool:
        # COUNT/AVG/SUM/MIN/MAX all fold from per-replica
        # [count, sum, min, max] partials, so a grouped aggregation's hot
        # key may be sprayed across replicas.
        return self.group_by is not None

    def params(self) -> dict:
        return {
            "interval": self.interval,
            "attributes": list(self.attributes),
            "function": self.function,
            "group_by": self.group_by,
            "window": self.window,
        }


@dataclass(frozen=True)
class JoinSpec(OperatorSpec):
    """s1 ⋈ᵗ_pred s2."""

    interval: float
    predicate: str
    left_prefix: str = "left"
    right_prefix: str = "right"

    kind = "join"
    input_count = 2

    def __post_init__(self) -> None:
        _require_positive(self, "interval")

    def infer_schema(self, inputs: "list[StreamSchema]") -> StreamSchema:
        self._check_inputs(inputs)
        left, right = inputs
        expr = compile_expression(self.predicate)
        expr.check_boolean(**{self.left_prefix: left, self.right_prefix: right})
        return join_schema(left, right, self.left_prefix, self.right_prefix)

    def build_operator(self) -> Operator:
        return JoinOperator(
            interval=self.interval,
            predicate=self.predicate,
            left_prefix=self.left_prefix,
            right_prefix=self.right_prefix,
        )

    def partition_keys(self) -> "tuple[str, ...] | None":
        # The first equi-conjunct is the partition key pair (left attr
        # for port 0, right attr for port 1).  Any matching pair
        # satisfies *every* equi-conjunct, the first included, so both
        # sides of a match always hash to the same shard.
        equi = self.build_operator().equi_keys  # type: ignore[attr-defined]
        return (equi[0][0], equi[0][1]) if equi else None

    def combine_safe(self) -> bool:
        # Never: spraying one equi-key over replicas separates left and
        # right tuples that must meet in the same window — pairs would be
        # silently lost, and no partial-fold can recover them.
        return False

    def params(self) -> dict:
        return {
            "interval": self.interval,
            "predicate": self.predicate,
            "left_prefix": self.left_prefix,
            "right_prefix": self.right_prefix,
        }


@dataclass(frozen=True)
class _TriggerSpecBase(OperatorSpec):
    interval: float
    condition: str
    targets: tuple[str, ...]
    window: "float | None" = None

    has_output = False

    def __post_init__(self) -> None:
        _require_positive(self, "interval", "window")
        object.__setattr__(self, "targets", tuple(self.targets))
        if not self.targets:
            raise DataflowError("trigger needs at least one target")

    def infer_schema(self, inputs: "list[StreamSchema]") -> None:
        self._check_inputs(inputs)
        stats = statistics_schema(inputs[0])
        compile_expression(self.condition).check_boolean(stats)
        return None

    def params(self) -> dict:
        return {
            "interval": self.interval,
            "condition": self.condition,
            "targets": list(self.targets),
            "window": self.window,
        }


@dataclass(frozen=True)
class TriggerOnSpec(_TriggerSpecBase):
    """⊕ON,t(s, {s1..sn}, cond)."""

    kind = "trigger-on"

    def build_operator(self) -> Operator:
        return TriggerOnOperator(
            interval=self.interval,
            condition=self.condition,
            targets=list(self.targets),
            window=self.window,
        )


@dataclass(frozen=True)
class TriggerOffSpec(_TriggerSpecBase):
    """⊕OFF,t(s, {s1..sn}, cond)."""

    kind = "trigger-off"

    def build_operator(self) -> Operator:
        return TriggerOffOperator(
            interval=self.interval,
            condition=self.condition,
            targets=list(self.targets),
            window=self.window,
        )


_SPEC_CLASSES: dict[str, type] = {
    cls.kind: cls
    for cls in (
        FilterSpec,
        TransformSpec,
        ValidateSpec,
        VirtualPropertySpec,
        CullTimeSpec,
        CullSpaceSpec,
        AggregationSpec,
        JoinSpec,
        TriggerOnSpec,
        TriggerOffSpec,
    )
}


def spec_class(kind: str) -> type:
    """The spec class of operator ``kind`` (its ports and whether it has a
    data output are class attributes); raises :class:`DataflowError` for
    an unknown kind."""
    cls = _SPEC_CLASSES.get(kind)
    if cls is None:
        known = ", ".join(sorted(_SPEC_CLASSES))
        raise DataflowError(f"unknown operator kind {kind!r}; known: {known}")
    return cls


def spec_from_dict(data: dict) -> OperatorSpec:
    """Rebuild a spec from its :meth:`OperatorSpec.to_dict` form."""
    payload = dict(data)
    kind = payload.pop("kind", None)
    cls = spec_class(kind)
    if kind == "transform" and payload.get("project") is not None:
        payload["project"] = tuple(payload["project"])
    if kind == "validate":
        payload["rules"] = tuple(payload["rules"])
    if kind == "aggregation":
        payload["attributes"] = tuple(payload["attributes"])
    if kind in ("trigger-on", "trigger-off"):
        payload["targets"] = tuple(payload["targets"])
    if kind == "cull-space":
        payload["corner1"] = tuple(payload["corner1"])
        payload["corner2"] = tuple(payload["corner2"])
    try:
        return cls(**payload)
    except TypeError as exc:
        raise DataflowError(f"bad parameters for {kind!r}: {exc}") from exc
