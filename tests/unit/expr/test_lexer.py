"""Unit tests for the expression tokenizer."""

import pytest

from repro.errors import LexError
from repro.expr.lexer import TokenKind, tokenize


def kinds(source):
    return [token.kind for token in tokenize(source)]


def texts(source):
    return [token.text for token in tokenize(source)[:-1]]


class TestBasics:
    def test_always_ends_with_eof(self):
        assert tokenize("")[-1].kind is TokenKind.EOF
        assert tokenize("a + b")[-1].kind is TokenKind.EOF

    def test_whitespace_ignored(self):
        assert texts("  a   +\tb ") == ["a", "+", "b"]

    def test_positions_recorded(self):
        tokens = tokenize("ab + cd")
        assert tokens[0].position == 0
        assert tokens[1].position == 3
        assert tokens[2].position == 5


class TestNumbers:
    @pytest.mark.parametrize("source,expected", [
        ("42", "42"), ("3.14", "3.14"), ("1e5", "1e5"),
        ("2.5e-3", "2.5e-3"), ("1E+2", "1E+2"), (".5", ".5"),
    ])
    def test_number_forms(self, source, expected):
        tokens = tokenize(source)
        assert tokens[0].kind is TokenKind.NUMBER
        assert tokens[0].text == expected

    def test_number_then_dot_ident_splits(self):
        # "1.x" must not swallow the dot (qualified refs use dots).
        assert texts("left.x") == ["left", ".", "x"]


class TestStrings:
    def test_single_and_double_quotes(self):
        assert texts("'abc'") == ["abc"]
        assert texts('"abc"') == ["abc"]

    def test_unclosed_raises_with_position(self):
        with pytest.raises(LexError) as exc_info:
            tokenize("x == 'oops")
        assert exc_info.value.position == 5

    def test_empty_string(self):
        tokens = tokenize("''")
        assert tokens[0].kind is TokenKind.STRING
        assert tokens[0].text == ""


class TestKeywordsAndIdents:
    def test_keywords_lowercased(self):
        tokens = tokenize("AND Or NOT True FALSE null IN")
        assert all(token.kind is TokenKind.KEYWORD for token in tokens[:-1])
        assert texts("AND Or NOT") == ["and", "or", "not"]

    def test_identifiers_keep_case(self):
        assert texts("Temperature _x a1") == ["Temperature", "_x", "a1"]

    def test_keyword_prefix_is_ident(self):
        tokens = tokenize("android")
        assert tokens[0].kind is TokenKind.IDENT


class TestOperators:
    @pytest.mark.parametrize("op", ["==", "!=", "<=", ">=", "<", ">",
                                     "+", "-", "*", "/", "%"])
    def test_operators(self, op):
        tokens = tokenize(f"a {op} b")
        assert tokens[1].kind is TokenKind.OP
        assert tokens[1].text == op

    def test_bare_equals_becomes_double(self):
        tokens = tokenize("a = b")
        assert tokens[1].text == "=="

    def test_parens_and_commas(self):
        assert kinds("f(a, b)")[:6] == [
            TokenKind.IDENT, TokenKind.LPAREN, TokenKind.IDENT,
            TokenKind.COMMA, TokenKind.IDENT, TokenKind.RPAREN,
        ]

    def test_invalid_character_raises(self):
        with pytest.raises(LexError, match="unexpected character"):
            tokenize("a @ b")
