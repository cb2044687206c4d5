"""Unit tests for the ``slo`` clause (render, parse, check, CLI syntax)."""

import pytest

from repro.cli import DEFAULT_SLO_EXPRS, parse_slo_expr
from repro.dsn.ast import DsnProgram, DsnSlo
from repro.dsn.parse import parse_dsn
from repro.errors import DsnParseError, StreamLoaderError
from repro.pubsub.subscription import SubscriptionFilter
from tests.builders import dsn
from tests.unit.dsn.test_check import row


def slo_program() -> DsnProgram:
    return dsn("src > k", src=SubscriptionFilter(sensor_type="rain"),
               k="collector")


@pytest.fixture
def program():
    return slo_program()


class TestRender:
    def test_slo_free_program_renders_historical_form(self):
        # Golden stability: without rules, no slo line appears at all.
        assert "slo" not in slo_program().render()

    def test_slo_clause_renders(self, program):
        program.slos.append(
            DsnSlo(flow="p", metric="p99_latency", op="<", threshold=5.0,
                   window=60.0)
        )
        assert '  slo "p" p99_latency < 5 over 60;\n' in program.render()

    def test_slo_renders_after_channels(self, program):
        program.slos.append(
            DsnSlo(flow="p", metric="watermark_lag", op="<", threshold=900.0))
        text = program.render()
        assert text.index("slo ") > text.index('channel "src" -> "k"')


class TestParse:
    def test_round_trip(self, program):
        program.slos.append(
            DsnSlo(flow="p", metric="p99_latency", op="<=", threshold=5.0,
                   window=60.0)
        )
        program.slos.append(
            DsnSlo(flow="p", metric="watermark_lag", op="<", threshold=900.0))
        assert parse_dsn(program.render()) == program

    def test_parse_extracts_fields(self):
        lines = slo_program().render().splitlines()
        lines.insert(-1, '  slo "p" saturation >= 0.5 over 0;')
        parsed = parse_dsn("\n".join(lines) + "\n")
        assert parsed.slos == [
            DsnSlo(flow="p", metric="saturation", op=">=", threshold=0.5,
                   window=0.0)
        ]

    def test_malformed_slo_line_rejected(self):
        lines = slo_program().render().splitlines()
        lines.insert(-1, '  slo "p" p99_latency ~ 5 over 60;')
        with pytest.raises(DsnParseError):
            parse_dsn("\n".join(lines) + "\n")


class TestCheck:
    test_bad_comparator_rejected = row("slo-comparator")
    test_negative_window_rejected = row("slo-window")


class TestCliExpressions:
    def test_parse_simple_expression(self):
        slo = parse_slo_expr("watermark_lag < 900", flow="f")
        assert slo == DsnSlo(flow="f", metric="watermark_lag", op="<",
                             threshold=900.0)

    def test_parse_windowed_expression(self):
        slo = parse_slo_expr("p99_latency <= 5.0 over 60", flow="f")
        assert slo.window == 60.0
        assert slo.op == "<="

    def test_garbage_rejected(self):
        with pytest.raises(StreamLoaderError):
            parse_slo_expr("p99_latency is fine", flow="f")

    def test_defaults_parse(self):
        for expr in DEFAULT_SLO_EXPRS:
            assert parse_slo_expr(expr, flow="f").flow == "f"
