"""Typed AST of the condition language.

Nodes know how to pretty-print themselves (``unparse``); the parser/printer
pair round-trips, which the property tests exploit.  Type checking against
one or two stream schemas lives on the nodes too, so the consistency check
can reject a condition that references missing attributes or compares
incompatible types *before* anything is deployed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TypeMismatchError, UnknownAttributeError
from repro.schema.schema import StreamSchema
from repro.schema.types import AttributeType, common_type

#: Operators by family, used for both type checking and evaluation.
COMPARISON_OPS = frozenset({"==", "!=", "<", "<=", ">", ">="})
ARITHMETIC_OPS = frozenset({"+", "-", "*", "/", "%"})
LOGICAL_OPS = frozenset({"and", "or"})


class Node:
    """Base class of AST nodes."""

    def unparse(self) -> str:
        raise NotImplementedError

    def attributes(self) -> set[tuple[str, str]]:
        """All ``(qualifier, name)`` attribute references in the subtree."""
        raise NotImplementedError

    def infer_type(self, schemas: "SchemaScope") -> AttributeType:
        raise NotImplementedError


@dataclass(frozen=True)
class SchemaScope:
    """Name-resolution scope: an unqualified schema or qualified pair.

    Filter/trigger/virtual-property conditions run against a single schema
    (``qualifiers == {}``); join predicates run against two, addressed as
    ``left.attr`` / ``right.attr`` (or custom qualifier names).
    """

    default: "StreamSchema | None" = None
    qualifiers: "dict[str, StreamSchema] | None" = None

    def resolve(self, qualifier: str, name: str) -> AttributeType:
        if qualifier:
            table = (self.qualifiers or {}).get(qualifier)
            if table is None:
                known = ", ".join(sorted(self.qualifiers or {})) or "(none)"
                raise UnknownAttributeError(
                    f"unknown qualifier {qualifier!r}; known: {known}"
                )
            if name not in table:
                raise UnknownAttributeError(
                    f"no attribute {name!r} in {qualifier!r} "
                    f"(has: {', '.join(table.names)})"
                )
            return table.type_of(name)
        if self.default is None:
            raise UnknownAttributeError(
                f"unqualified attribute {name!r} used in a two-stream context; "
                f"qualify it (e.g. left.{name})"
            )
        if name not in self.default:
            raise UnknownAttributeError(
                f"no attribute {name!r} in schema (has: {', '.join(self.default.names)})"
            )
        return self.default.type_of(name)


@dataclass(frozen=True)
class Literal(Node):
    """A constant: number, string, boolean or null."""

    value: "int | float | str | bool | None"

    def unparse(self) -> str:
        if self.value is None:
            return "null"
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "\\'")
            return f"'{escaped}'"
        return repr(self.value)

    def attributes(self) -> set[tuple[str, str]]:
        return set()

    def infer_type(self, schemas: SchemaScope) -> AttributeType:
        if isinstance(self.value, bool):
            return AttributeType.BOOL
        if isinstance(self.value, int):
            return AttributeType.INT
        if isinstance(self.value, float):
            return AttributeType.FLOAT
        if isinstance(self.value, str):
            return AttributeType.STRING
        if self.value is None:
            # Null literal: usable where any nullable comparison occurs.
            return AttributeType.STRING
        raise TypeMismatchError(f"unsupported literal {self.value!r}")


@dataclass(frozen=True)
class AttributeRef(Node):
    """Reference to a tuple attribute, optionally qualified (``left.temp``)."""

    name: str
    qualifier: str = ""

    def unparse(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name

    def attributes(self) -> set[tuple[str, str]]:
        return {(self.qualifier, self.name)}

    def infer_type(self, schemas: SchemaScope) -> AttributeType:
        return schemas.resolve(self.qualifier, self.name)


@dataclass(frozen=True)
class UnaryOp(Node):
    """``-x`` or ``not x``."""

    op: str
    operand: Node

    def unparse(self) -> str:
        if self.op == "not":
            # Outer parentheses keep 'not' (loosest unary) correctly bound
            # when this node is embedded in arithmetic or comparisons.
            return f"(not {self.operand.unparse()})"
        return f"({self.op}{self.operand.unparse()})"

    def attributes(self) -> set[tuple[str, str]]:
        return self.operand.attributes()

    def infer_type(self, schemas: SchemaScope) -> AttributeType:
        inner = self.operand.infer_type(schemas)
        if self.op == "not":
            if inner is not AttributeType.BOOL:
                raise TypeMismatchError(f"'not' needs a boolean, got {inner.value}")
            return AttributeType.BOOL
        if self.op == "-":
            if not inner.is_numeric:
                raise TypeMismatchError(f"unary '-' needs a number, got {inner.value}")
            return inner
        raise TypeMismatchError(f"unknown unary operator {self.op!r}")


@dataclass(frozen=True)
class BinaryOp(Node):
    """Comparison, arithmetic, logical connective, or ``in``."""

    op: str
    left: Node
    right: Node

    def unparse(self) -> str:
        return f"({self.left.unparse()} {self.op} {self.right.unparse()})"

    def attributes(self) -> set[tuple[str, str]]:
        return self.left.attributes() | self.right.attributes()

    def infer_type(self, schemas: SchemaScope) -> AttributeType:
        lt = self.left.infer_type(schemas)
        rt = self.right.infer_type(schemas)
        if self.op in LOGICAL_OPS:
            if lt is not AttributeType.BOOL or rt is not AttributeType.BOOL:
                raise TypeMismatchError(
                    f"'{self.op}' needs booleans, got {lt.value} and {rt.value}"
                )
            return AttributeType.BOOL
        if self.op in COMPARISON_OPS:
            common = common_type(lt, rt)  # raises on incomparable
            if self.op not in ("==", "!=") and not common.is_orderable:
                raise TypeMismatchError(
                    f"'{self.op}' needs orderable operands, got {common.value}"
                )
            return AttributeType.BOOL
        if self.op == "in":
            if rt is not AttributeType.STRING or lt is not AttributeType.STRING:
                raise TypeMismatchError("'in' tests substring: both sides string")
            return AttributeType.BOOL
        if self.op in ARITHMETIC_OPS:
            if self.op == "+" and lt is AttributeType.STRING and rt is AttributeType.STRING:
                return AttributeType.STRING
            if not lt.is_numeric or not rt.is_numeric:
                raise TypeMismatchError(
                    f"'{self.op}' needs numbers, got {lt.value} and {rt.value}"
                )
            if self.op == "/":
                return AttributeType.FLOAT
            return common_type(lt, rt)
        raise TypeMismatchError(f"unknown operator {self.op!r}")


@dataclass(frozen=True)
class Call(Node):
    """Function call, resolved against the function registry at check time."""

    name: str
    args: tuple[Node, ...]

    def unparse(self) -> str:
        inner = ", ".join(arg.unparse() for arg in self.args)
        return f"{self.name}({inner})"

    def attributes(self) -> set[tuple[str, str]]:
        refs: set[tuple[str, str]] = set()
        for arg in self.args:
            refs |= arg.attributes()
        return refs

    def infer_type(self, schemas: SchemaScope) -> AttributeType:
        from repro.expr.functions import DEFAULT_FUNCTIONS

        signature = DEFAULT_FUNCTIONS.signature(self.name, len(self.args))
        for index, (arg, expected) in enumerate(zip(self.args, signature.arg_types)):
            if expected is None:
                continue
            actual = arg.infer_type(schemas)
            if expected is AttributeType.FLOAT and actual.is_numeric:
                continue
            if actual is not expected:
                raise TypeMismatchError(
                    f"{self.name}() argument {index + 1} must be "
                    f"{expected.value}, got {actual.value}"
                )
        return signature.return_type


#: Public alias: an expression is any AST node.
Expression = Node
