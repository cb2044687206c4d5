"""Schema inference primitives for the dataflow operators.

Each function computes the *output* schema of one operator kind from its
input schema(s) and parameters, raising :class:`repro.errors.SchemaError`
when the combination is inconsistent.  The consistency check calls these
to propagate schemas across the canvas, which is what lets the designer
show "the schema of data that are processed by the operation" at every
node and reject unsound designs before translation.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import SchemaError
from repro.schema.schema import Attribute, StreamSchema
from repro.schema.types import AttributeType
from repro.stt.granularity import (
    common_spatial,
    common_temporal,
    temporal_granularity,
)

#: Aggregation functions of Table 1 and their output types.
AGGREGATION_FUNCTIONS = ("COUNT", "AVG", "SUM", "MIN", "MAX")


def rename_schema(schema: StreamSchema, mapping: dict[str, str]) -> StreamSchema:
    """Schema after renaming attributes per ``mapping``."""
    for old in mapping:
        schema.attribute(old)  # raise on unknown source names
    taken = set(schema.names) - set(mapping)
    for new in mapping.values():
        if new in taken:
            raise SchemaError(f"rename target {new!r} collides with existing attribute")
        taken.add(new)
    return schema.renamed(mapping)


def with_virtual_property(
    schema: StreamSchema,
    name: str,
    attr_type: "str | AttributeType",
    unit: str = "",
) -> StreamSchema:
    """Schema after the Virtual Property operator adds attribute ``name``.

    Mirrors Table 1's ⊎ s⟨p, spec⟩: "a new attribute p is added to the
    schema of s according to the specification spec".
    """
    if name in schema:
        raise SchemaError(
            f"virtual property {name!r} collides with an existing attribute"
        )
    return schema.with_attribute(Attribute(name, AttributeType.parse(attr_type), unit))


def aggregate_schema(
    schema: StreamSchema,
    attributes: "list[str]",
    function: str,
    interval: float,
    group_by: "str | None" = None,
) -> StreamSchema:
    """Schema after @t,{a1..an} op (s).

    The output carries one aggregated column per requested attribute named
    ``<fn>_<attr>`` (plus the ``group_by`` key attribute when grouping),
    stamped at a temporal granularity coarsened to cover the aggregation
    interval.
    """
    fn = function.upper()
    if fn not in AGGREGATION_FUNCTIONS:
        raise SchemaError(
            f"unknown aggregation function {function!r}; "
            f"known: {', '.join(AGGREGATION_FUNCTIONS)}"
        )
    if interval <= 0:
        raise SchemaError(f"aggregation interval must be positive, got {interval}")
    if not attributes:
        raise SchemaError("aggregation requires at least one attribute")
    if group_by is not None and group_by in attributes:
        raise SchemaError(
            f"group_by attribute {group_by!r} cannot also be aggregated"
        )

    out_attrs: list[Attribute] = []
    if group_by is not None:
        out_attrs.append(schema.attribute(group_by))
    for name in attributes:
        attr = schema.attribute(name)
        if fn == "COUNT":
            out_attrs.append(Attribute(f"count_{name}", AttributeType.INT))
            continue
        if not attr.type.is_numeric:
            raise SchemaError(
                f"cannot {fn} non-numeric attribute {name!r} ({attr.type.value})"
            )
        out_type = AttributeType.FLOAT if fn == "AVG" else attr.type
        out_attrs.append(Attribute(f"{fn.lower()}_{name}", out_type, unit=attr.unit))

    out_gran = schema.temporal_granularity
    for candidate in ("second", "minute", "hour", "day", "week", "month", "year"):
        gran = temporal_granularity(candidate)
        if gran.seconds >= interval or candidate == "year":
            out_gran = common_temporal(schema.temporal_granularity, gran)
            break
    return replace(
        schema,
        attributes=tuple(out_attrs),
        temporal_granularity=out_gran,
    )


def join_schema(
    left: StreamSchema,
    right: StreamSchema,
    left_prefix: str = "l",
    right_prefix: str = "r",
) -> StreamSchema:
    """Schema after s1 ⋈ᵗ s2: concatenation with collision disambiguation.

    Attributes whose names collide across the two inputs are prefixed;
    non-colliding names are kept as-is.  The output's STT metadata is the
    coarsest common granularity pair and the union of themes — the
    granularity consistency constraint the paper imposes on composition.
    """
    if left_prefix == right_prefix:
        raise SchemaError("join prefixes must differ")
    collisions = set(left.names) & set(right.names)

    def _rename(schema: StreamSchema, prefix: str) -> StreamSchema:
        mapping = {name: f"{prefix}_{name}" for name in schema.names if name in collisions}
        return schema.renamed(mapping) if mapping else schema

    left_rn = _rename(left, left_prefix)
    right_rn = _rename(right, right_prefix)
    merged = left_rn.attributes + right_rn.attributes
    seen: set[str] = set()
    for attr in merged:
        if attr.name in seen:
            raise SchemaError(
                f"join output still has duplicate attribute {attr.name!r}; "
                f"choose different prefixes"
            )
        seen.add(attr.name)
    themes = left.themes + tuple(t for t in right.themes if t not in left.themes)
    return StreamSchema(
        attributes=merged,
        temporal_granularity=common_temporal(
            left.temporal_granularity, right.temporal_granularity
        ),
        spatial_granularity=common_spatial(
            left.spatial_granularity, right.spatial_granularity
        ),
        themes=themes,
    )
