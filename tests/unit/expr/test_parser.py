"""Unit tests for the expression parser."""

import pytest

from repro.errors import ParseError
from repro.expr.ast import AttributeRef, BinaryOp, Call, Literal, UnaryOp
from repro.expr.parser import parse


class TestLiterals:
    def test_int_and_float(self):
        assert parse("42") == Literal(42)
        assert parse("3.5") == Literal(3.5)
        assert parse("1e3") == Literal(1000.0)

    def test_booleans_and_null(self):
        assert parse("true") == Literal(True)
        assert parse("false") == Literal(False)
        assert parse("null") == Literal(None)

    def test_string(self):
        assert parse("'abc'") == Literal("abc")


class TestReferences:
    def test_unqualified(self):
        assert parse("temperature") == AttributeRef("temperature")

    def test_qualified(self):
        assert parse("left.temp") == AttributeRef("temp", qualifier="left")


class TestPrecedence:
    def test_multiplication_binds_tighter(self):
        node = parse("a + b * c")
        assert isinstance(node, BinaryOp) and node.op == "+"
        assert isinstance(node.right, BinaryOp) and node.right.op == "*"

    def test_parentheses_override(self):
        node = parse("(a + b) * c")
        assert node.op == "*"
        assert isinstance(node.left, BinaryOp) and node.left.op == "+"

    def test_comparison_over_arithmetic(self):
        node = parse("a + 1 > b - 2")
        assert node.op == ">"
        assert node.left.op == "+" and node.right.op == "-"

    def test_and_over_or(self):
        node = parse("a or b and c")
        assert node.op == "or"
        assert node.right.op == "and"

    def test_not_binds_tightest_of_logical(self):
        node = parse("not a and b")
        assert node.op == "and"
        assert isinstance(node.left, UnaryOp) and node.left.op == "not"

    def test_left_associativity(self):
        node = parse("a - b - c")
        assert node.op == "-"
        assert isinstance(node.left, BinaryOp) and node.left.op == "-"
        assert node.left.right == AttributeRef("b")

    def test_unary_minus(self):
        node = parse("-a * b")
        assert node.op == "*"
        assert isinstance(node.left, UnaryOp)

    def test_double_negation(self):
        node = parse("not not a")
        assert isinstance(node.operand, UnaryOp)


class TestCalls:
    def test_no_args(self):
        assert parse("f()") == Call("f", ())

    def test_multiple_args(self):
        node = parse("convert(x, 'yard', 'meter')")
        assert node == Call(
            "convert", (AttributeRef("x"), Literal("yard"), Literal("meter")))

    def test_nested_calls(self):
        node = parse("max(abs(a), abs(b))")
        assert isinstance(node.args[0], Call)

    def test_expression_args(self):
        node = parse("sqrt(a*a + b*b)")
        assert isinstance(node.args[0], BinaryOp)


class TestInOperator:
    def test_in_parses_as_comparison(self):
        node = parse("'rain' in text")
        assert node.op == "in"
        assert node.left == Literal("rain")


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "", "a +", "(a", "a)", "f(a,", "a b", "1 2", "a ==", "and a",
        "a..b", "f(,)",
    ])
    def test_malformed_raises(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    def test_trailing_input_reported(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("a + b c")


class TestRoundTrip:
    @pytest.mark.parametrize("source", [
        "a + b * c",
        "not (x > 3 and y < 2)",
        "convert(temp, 'celsius', 'fahrenheit') >= 80",
        "left.a == right.b or left.c != 0",
        "'storm' in text",
        "-x % 3 == 1",
        "if(a > 0, a, -a) > 2.5",
    ])
    def test_unparse_reparses_identically(self, source):
        tree = parse(source)
        assert parse(tree.unparse()) == tree
