"""Stream schemas.

The paper stresses that *"data schema are not fixed but depend on the
sensors"*: each published sensor exposes its own schema, and the designer
propagates schemas through every operator so the user always sees "the
schema of data that are processed by the operation".  This package defines
attribute types, stream schemas with STT metadata, and the schema-inference
primitives used by the consistency check.
"""

from repro.schema.types import AttributeType, common_type
from repro.schema.schema import Attribute, StreamSchema
from repro.schema.infer import (
    aggregate_schema,
    join_schema,
    rename_schema,
    with_virtual_property,
)

__all__ = [
    "AttributeType",
    "common_type",
    "Attribute",
    "StreamSchema",
    "aggregate_schema",
    "join_schema",
    "rename_schema",
    "with_virtual_property",
]
