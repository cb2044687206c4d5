"""Property-based tests for the expression language.

The central property: ``parse(unparse(tree)) == tree`` for arbitrary trees,
i.e. the pretty-printer and parser are inverse on the AST.  Plus evaluator
consistency properties on randomly generated arithmetic/boolean trees.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import ExpressionError
from repro.expr.ast import AttributeRef, BinaryOp, Call, Literal, UnaryOp
from repro.expr.compile import CompiledExpression, compile_expression
from repro.expr.parser import parse

identifiers = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: s not in ("and", "or", "not", "true", "false", "null", "in"))

literals = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6).map(Literal),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
              allow_infinity=False).map(Literal),
    st.booleans().map(Literal),
    st.text(alphabet="abcdefg xyz0123", max_size=8).map(Literal),
    st.just(Literal(None)),
)

refs = st.one_of(
    identifiers.map(AttributeRef),
    st.tuples(identifiers, identifiers).map(
        lambda pair: AttributeRef(pair[0], qualifier=pair[1])
    ),
)

_ARITH = ["+", "-", "*", "/", "%"]
_CMP = ["==", "!=", "<", "<=", ">", ">="]
_LOGIC = ["and", "or"]


def _fold_unary(pair):
    """Mirror the parser's constant folding of negative numeric literals."""
    op, operand = pair
    if (op == "-" and isinstance(operand, Literal)
            and isinstance(operand.value, (int, float))
            and not isinstance(operand.value, bool)):
        return Literal(-operand.value)
    return UnaryOp(op, operand)


def trees(depth=3):
    if depth == 0:
        return st.one_of(literals, refs)
    sub = trees(depth - 1)
    return st.one_of(
        literals,
        refs,
        st.tuples(st.sampled_from(_ARITH + _CMP + _LOGIC + ["in"]), sub, sub).map(
            lambda t: BinaryOp(t[0], t[1], t[2])
        ),
        st.tuples(st.sampled_from(["-", "not"]), sub).map(_fold_unary),
        st.tuples(identifiers, st.lists(sub, max_size=3)).map(
            lambda t: Call(t[0], tuple(t[1]))
        ),
    )


class TestRoundTrip:
    @given(trees())
    @settings(max_examples=300)
    def test_parse_unparse_identity(self, tree):
        assert parse(tree.unparse()) == tree

    @given(trees())
    def test_unparse_is_stable(self, tree):
        text = tree.unparse()
        assert parse(text).unparse() == text

    @given(trees(), st.integers(min_value=-100, max_value=100))
    @settings(max_examples=300)
    def test_eval_survives_round_trip(self, tree, binding):
        """eval(parse(render(ast))) == eval(ast) for any evaluable tree.

        Syntactic identity (above) is necessary but not sufficient: this
        pins that rendering never changes *meaning* — precedence,
        associativity, literal formatting — for trees that evaluate at all.
        """
        values: dict = {}
        qualified: dict[str, dict] = {}
        for qualifier, name in tree.attributes():
            if qualifier:
                qualified.setdefault(qualifier, {})[name] = binding
            else:
                values[name] = binding

        def evaluate(root):
            return CompiledExpression(
                source=root.unparse(), root=root).evaluate(values, **qualified)

        try:
            expected = evaluate(tree)
        except ExpressionError:
            assume(False)  # inevaluable tree (bad types, unknown function)
        assert evaluate(parse(tree.unparse())) == expected


class TestEvaluatorProperties:
    ints = st.integers(min_value=-1000, max_value=1000)

    @given(ints, ints)
    def test_arithmetic_matches_python(self, a, b):
        expr = compile_expression("a + b * 2 - a")
        assert expr.evaluate({"a": a, "b": b}) == a + b * 2 - a

    @given(ints, ints)
    def test_comparison_trichotomy(self, a, b):
        values = {"a": a, "b": b}
        lt = compile_expression("a < b").evaluate(values)
        eq = compile_expression("a == b").evaluate(values)
        gt = compile_expression("a > b").evaluate(values)
        assert [lt, eq, gt].count(True) == 1

    @given(st.booleans(), st.booleans())
    def test_de_morgan(self, p, q):
        values = {"p": p, "q": q}
        left = compile_expression("not (p and q)").evaluate(values)
        right = compile_expression("(not p) or (not q)").evaluate(values)
        assert left == right

    @given(ints)
    def test_filter_condition_deterministic(self, a):
        expr = compile_expression("a % 3 == 0 or a < 0")
        assert expr.evaluate({"a": a}) == expr.evaluate({"a": a})

    @given(st.text(alphabet="abc", max_size=6), st.text(alphabet="abc", max_size=6))
    def test_in_matches_python(self, needle, hay):
        expr = compile_expression("n in h")
        assert expr.evaluate({"n": needle, "h": hay}) == (needle in hay)
