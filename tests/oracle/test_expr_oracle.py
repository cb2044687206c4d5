"""The expression oracle: generated code ≡ tree walker on random ASTs.

For every tree the parser can produce and every payload, ``evaluate``
(generated code, folding included) and :mod:`tests.oracle.interpreter`
agree on the outcome: the same value, or the same
:class:`ExpressionError` subclass with the same message.
"""

import ast
import pathlib

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import ExpressionError
from repro.expr.compile import CompiledExpression, compile_expression
from tests.oracle.interpreter import interpret
from tests.property.test_prop_expr import identifiers, trees

#: Payload values spanning every type the evaluator distinguishes.
payload_values = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(min_value=-1e6, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.text(alphabet="abcdefg xyz0123", max_size=8),
    st.none(),
)

payloads = st.dictionaries(identifiers, payload_values, max_size=6)


def outcome(fn, *args, **kwargs):
    """(value, None) on success, (type, message) on expression errors."""
    try:
        return fn(*args, **kwargs), None
    except ExpressionError as exc:
        return type(exc), str(exc)


class TestCompileParity:
    @given(trees(), payloads, st.data())
    @settings(max_examples=300)
    def test_random_tree_random_payload(self, tree, values, data):
        # Bind the tree's own unqualified names as well: a random payload
        # almost never holds them, and evaluation would stop at the lookup.
        for qualifier, name in sorted(tree.attributes()):
            if not qualifier:
                values[name] = data.draw(payload_values)
        expr = CompiledExpression(source=tree.unparse(), root=tree).prepare()
        assert (outcome(expr.evaluate, values)
                == outcome(interpret, expr, values))

    @given(trees(), payloads, payloads)
    @settings(max_examples=300)
    def test_qualified_payloads(self, tree, left, right):
        """Join-style evaluation: qualified refs bind per-side payloads."""
        expr = CompiledExpression(source=tree.unparse(), root=tree).prepare()
        kwargs = {"left": left, "right": right}
        assert (outcome(expr.evaluate, left, **kwargs)
                == outcome(interpret, expr, left, **kwargs))

    @given(trees(), payloads)
    @settings(max_examples=200)
    def test_parity_survives_source_round_trip(self, tree, values):
        """Compiling the unparsed source gives the same outcomes too —
        folding/specialisation in the lowering never changes meaning."""
        expr = CompiledExpression(source=tree.unparse(), root=tree).prepare()
        reparsed = compile_expression(tree.unparse()).prepare()
        assert (outcome(reparsed.evaluate, values)
                == outcome(interpret, expr, values))

    @given(st.dictionaries(
        st.sampled_from(["temperature", "humidity", "station"]),
        payload_values,
    ))
    @settings(max_examples=200)
    def test_representative_operator_conditions(self, values):
        """The expression shapes operators actually install, over payloads
        that hold some or all of the names they read."""
        for source in (
            "temperature > 24 and humidity < 0.8",
            "(temperature * 1.8 + 32) / 2 > 30 or humidity * 100 < 45",
            "contains(station, 'umeda') or temperature > 30",
            "not (temperature == null) and temperature % 2 == 0",
            "temperature / humidity > 10",
        ):
            expr = compile_expression(source).prepare()
            assert (outcome(expr.evaluate, values)
                    == outcome(interpret, expr, values))


def test_the_runtime_never_imports_the_oracle():
    importers = []
    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[0] == "tests" for name in names):
                importers.append(path.name)
    assert importers == []
