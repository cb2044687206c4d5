"""Attribute types and the coercion lattice.

Heterogeneous sensors disagree on representations, so the type system is
deliberately small and the widening rules explicit: ``BOOL < INT < FLOAT``
widen implicitly; everything else requires an explicit Transform.
"""

from __future__ import annotations

from enum import Enum

from repro.errors import TypeMismatchError


class AttributeType(Enum):
    """Types an attribute of a sensor stream can take."""

    BOOL = "bool"
    INT = "int"
    FLOAT = "float"
    STRING = "string"
    TIMESTAMP = "timestamp"
    GEO = "geo"

    @classmethod
    def parse(cls, name: "str | AttributeType") -> "AttributeType":
        if isinstance(name, AttributeType):
            return name
        key = name.strip().lower()
        aliases = {
            "boolean": "bool",
            "integer": "int",
            "double": "float",
            "real": "float",
            "number": "float",
            "str": "string",
            "text": "string",
            "time": "timestamp",
            "datetime": "timestamp",
            "point": "geo",
            "location": "geo",
        }
        key = aliases.get(key, key)
        for member in cls:
            if member.value == key:
                return member
        known = ", ".join(m.value for m in cls)
        raise TypeMismatchError(f"unknown attribute type {name!r}; known: {known}")

    @property
    def is_numeric(self) -> bool:
        return self in (AttributeType.INT, AttributeType.FLOAT)

    @property
    def is_orderable(self) -> bool:
        """Whether values of this type support <, <=, >, >= comparisons."""
        return self in (
            AttributeType.INT,
            AttributeType.FLOAT,
            AttributeType.STRING,
            AttributeType.TIMESTAMP,
            AttributeType.BOOL,
        )


#: Implicit widening order: a type widens to any type at or after its own
#: position in this chain (only within the chain).
_WIDENING_CHAIN = [AttributeType.BOOL, AttributeType.INT, AttributeType.FLOAT]


def widens_to(source: AttributeType, target: AttributeType) -> bool:
    """True when ``source`` values are implicitly usable as ``target``."""
    if source is target:
        return True
    if source in _WIDENING_CHAIN and target in _WIDENING_CHAIN:
        return _WIDENING_CHAIN.index(source) <= _WIDENING_CHAIN.index(target)
    return False


def common_type(a: AttributeType, b: AttributeType) -> AttributeType:
    """Least common type of two attribute types, for comparisons and joins.

    Raises :class:`TypeMismatchError` when no implicit common type exists.
    """
    if widens_to(a, b):
        return b
    if widens_to(b, a):
        return a
    raise TypeMismatchError(f"no common type between {a.value} and {b.value}")


def infer_type(value: object) -> AttributeType:
    """The tightest :class:`AttributeType` for a Python value."""
    if isinstance(value, bool):
        return AttributeType.BOOL
    if isinstance(value, int):
        return AttributeType.INT
    if isinstance(value, float):
        return AttributeType.FLOAT
    if isinstance(value, str):
        return AttributeType.STRING
    from repro.stt.spatial import Box, GridCell, Point

    if isinstance(value, (Point, Box, GridCell)):
        return AttributeType.GEO
    raise TypeMismatchError(f"no attribute type for value {value!r}")
