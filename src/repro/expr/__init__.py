"""Condition / specification expression language.

One small, safe language serves every textual parameter of Table 1: Filter
conditions (``σ(s, cond)``), Join predicates, Trigger conditions, Virtual
Property specifications (``⊎ s⟨p, spec⟩``) and Transform definitions.  The
pipeline is classic: :mod:`lexer` → :mod:`parser` → typed :mod:`ast` →
:mod:`compile`, with a :mod:`functions` registry providing the math, string,
temporal, spatial and unit-conversion built-ins the ETL operators need.

>>> from repro.expr import compile_expression
>>> expr = compile_expression("temperature > 24 and humidity >= 0.6")
>>> expr.evaluate({"temperature": 26.0, "humidity": 0.7})
True
"""

from repro.expr.ast import (
    AttributeRef,
    BinaryOp,
    Call,
    Expression,
    Literal,
    Node,
    UnaryOp,
)
from repro.expr.lexer import Token, TokenKind, tokenize
from repro.expr.parser import parse
from repro.expr.compile import compile_expression
from repro.expr.functions import FunctionRegistry, DEFAULT_FUNCTIONS

__all__ = [
    "AttributeRef",
    "BinaryOp",
    "Call",
    "Expression",
    "Literal",
    "Node",
    "UnaryOp",
    "Token",
    "TokenKind",
    "tokenize",
    "parse",
    "compile_expression",
    "FunctionRegistry",
    "DEFAULT_FUNCTIONS",
]
