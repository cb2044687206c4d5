"""Stream schemas with STT metadata.

A :class:`StreamSchema` describes the tuples a sensor (or a derived stream)
produces: an ordered list of typed attributes plus the stamping metadata the
pub-sub layer publishes alongside the stream — default temporal and spatial
granularities and thematic tags.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import SchemaError
from repro.schema.types import AttributeType
from repro.stt.granularity import (
    SpatialGranularity,
    TemporalGranularity,
    spatial_granularity,
    temporal_granularity,
)
from repro.stt.thematic import Theme

_IDENT_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or any(c not in _IDENT_OK for c in name):
        raise SchemaError(
            f"invalid attribute name {name!r}: must be an identifier "
            f"(letters, digits, underscore; not starting with a digit)"
        )
    return name


@dataclass(frozen=True)
class Attribute:
    """One typed attribute of a stream schema.

    Attributes:
        name: identifier, unique within the schema.
        type: value type.
        unit: unit of measure name for numeric attributes (optional).
        nullable: whether tuples may omit / null this attribute.
    """

    name: str
    type: AttributeType
    unit: str = ""
    nullable: bool = False

    def __post_init__(self) -> None:
        _check_name(self.name)
        object.__setattr__(self, "type", AttributeType.parse(self.type))
        if self.unit and not self.type.is_numeric:
            raise SchemaError(
                f"attribute {self.name!r}: unit {self.unit!r} requires a "
                f"numeric type, got {self.type.value}"
            )

    def renamed(self, name: str) -> "Attribute":
        return replace(self, name=_check_name(name))


@dataclass(frozen=True)
class StreamSchema:
    """Ordered, named, typed attributes plus STT stamping metadata.

    The attribute order is the display order in the designer's schema pane;
    lookups are by name.
    """

    attributes: tuple[Attribute, ...]
    temporal_granularity: TemporalGranularity = field(
        default_factory=lambda: temporal_granularity("second")
    )
    spatial_granularity: SpatialGranularity = field(
        default_factory=lambda: spatial_granularity("point")
    )
    themes: tuple[Theme, ...] = ()

    def __post_init__(self) -> None:
        attrs = tuple(self.attributes)
        object.__setattr__(self, "attributes", attrs)
        seen: set[str] = set()
        for attr in attrs:
            if not isinstance(attr, Attribute):
                raise SchemaError(f"not an Attribute: {attr!r}")
            if attr.name in seen:
                raise SchemaError(f"duplicate attribute name {attr.name!r}")
            seen.add(attr.name)
        object.__setattr__(
            self, "temporal_granularity", temporal_granularity(self.temporal_granularity)
        )
        object.__setattr__(
            self, "spatial_granularity", spatial_granularity(self.spatial_granularity)
        )
        themes = tuple(
            theme if isinstance(theme, Theme) else Theme(theme) for theme in self.themes
        )
        object.__setattr__(self, "themes", themes)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def build(
        cls,
        attrs: "list[tuple] | dict[str, str | AttributeType]",
        temporal: "str | TemporalGranularity" = "second",
        spatial: "str | SpatialGranularity" = "point",
        themes: "tuple | list" = (),
    ) -> "StreamSchema":
        """Concise constructor.

        ``attrs`` is either ``{"temp": "float", ...}`` or a list of
        ``(name, type)`` / ``(name, type, unit)`` tuples.
        """
        attributes: list[Attribute] = []
        if isinstance(attrs, dict):
            items = [(name, attr_type) for name, attr_type in attrs.items()]
        else:
            items = list(attrs)
        for item in items:
            if isinstance(item, Attribute):
                attributes.append(item)
            elif len(item) == 2:
                attributes.append(Attribute(item[0], AttributeType.parse(item[1])))
            elif len(item) == 3:
                attributes.append(
                    Attribute(item[0], AttributeType.parse(item[1]), unit=item[2])
                )
            else:
                raise SchemaError(f"cannot build attribute from {item!r}")
        return cls(
            attributes=tuple(attributes),
            temporal_granularity=temporal,
            spatial_granularity=spatial,
            themes=tuple(themes),
        )

    # -- lookups ---------------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(attr.name for attr in self.attributes)

    def __contains__(self, name: object) -> bool:
        return any(attr.name == name for attr in self.attributes)

    def __len__(self) -> int:
        return len(self.attributes)

    def attribute(self, name: str) -> Attribute:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise SchemaError(f"no attribute {name!r} in schema {self.names}")

    def type_of(self, name: str) -> AttributeType:
        return self.attribute(name).type

    # -- validation --------------------------------------------------------------

    # -- derivation -----------------------------------------------------------

    def with_attribute(self, attr: Attribute) -> "StreamSchema":
        if attr.name in self:
            raise SchemaError(f"attribute {attr.name!r} already in schema")
        return replace(self, attributes=self.attributes + (attr,))

    def project(self, names: "list[str] | tuple[str, ...]") -> "StreamSchema":
        kept = tuple(self.attribute(name) for name in names)
        return replace(self, attributes=kept)

    def renamed(self, mapping: dict[str, str]) -> "StreamSchema":
        new_attrs = tuple(
            attr.renamed(mapping[attr.name]) if attr.name in mapping else attr
            for attr in self.attributes
        )
        return replace(self, attributes=new_attrs)

    def describe(self) -> str:
        """Human-readable one-liner, as shown in the designer schema pane."""
        cols = ", ".join(
            f"{a.name}:{a.type.value}" + (f"[{a.unit}]" if a.unit else "")
            for a in self.attributes
        )
        themes = ",".join(str(t) for t in self.themes) or "-"
        return (
            f"({cols}) @ {self.temporal_granularity.name}/"
            f"{self.spatial_granularity.name} themes={themes}"
        )
