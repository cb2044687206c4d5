"""Unit tests for the ``fuse`` clause (render, parse; the check's rules
are rows of ``tests/unit/dsn/test_check.py``)."""

import pytest

from repro.dataflow.fusion import plan_fusion
from repro.dataflow.ops import FilterSpec, TransformSpec
from repro.dsn.ast import (
    DsnChannel, DsnFuse, DsnProgram, DsnService, ServiceRole,
)
from repro.dsn.generate import dataflow_to_dsn
from repro.dsn.parse import parse_dsn
from repro.errors import DsnParseError
from repro.pubsub.subscription import SubscriptionFilter
from tests.builders import dsn, pipeline
from tests.unit.dsn.test_check import row


def fusible_program(*fuses) -> DsnProgram:
    """src -> f -> g -> k with a fusible operator pair, and ``fuses``
    (member tuples) declared."""
    return dsn("src > f", "f > g", "g > k",
               *(DsnFuse(members=members) for members in fuses),
               src=SubscriptionFilter(sensor_type="rain"), k="collector",
               f=("filter", {"condition": "rain_rate > 10"}),
               g=("transform", {"assignments": {"x": "rain_rate * 2"}}))


class TestRender:
    def test_fuse_free_program_renders_historical_form(self):
        # Golden stability: without hints, no fuse line appears at all.
        assert "fuse" not in fusible_program().render()

    def test_fuse_clause_renders_chain(self):
        program = fusible_program(("f", "g"))
        assert '  fuse "f" -> "g";\n' in program.render()

    def test_fuse_renders_after_channels(self):
        program = fusible_program(("f", "g"))
        text = program.render()
        assert text.index("fuse ") > text.index('channel "g" -> "k"')


class TestParse:
    def test_round_trip(self):
        program = fusible_program(("f", "g"))
        parsed = parse_dsn(program.render())
        assert parsed.fuses == [DsnFuse(members=("f", "g"))]
        assert parsed == program

    def test_long_chain_round_trip(self):
        program = fusible_program(("f", "g", "h"))
        program.services.append(DsnService(ServiceRole.OPERATOR, "h",
                                           "validate", {"rules": ["x >= 0"]}))
        program.channels.append(DsnChannel("g", "h", 0))
        parsed = parse_dsn(program.render())
        assert parsed.fuses[0].members == ("f", "g", "h")

    def test_single_member_fuse_is_a_parse_error(self):
        text = fusible_program().render().replace("}", '  fuse "f";\n}', 1)
        # The closing brace of the first service block is the first "}";
        # the injected statement is malformed wherever it lands.
        with pytest.raises(DsnParseError):
            parse_dsn(text)


class TestCheck:
    test_undeclared_member_rejected = row("fuse-undeclared")
    test_non_operator_member_rejected = row("fuse-not-operator")
    test_short_chain_rejected = row("fuse-short")
    test_overlapping_hints_rejected = row("fuse-overlap")


class TestGenerate:
    def test_translator_emits_no_hints_by_default(self, registry):
        flow = pipeline("flow", ("f", FilterSpec("temperature > 24")),
                        ("g", TransformSpec(assignments={
                            "x": "temperature * 2"})), sink="k")
        plain = dataflow_to_dsn(flow, registry)
        assert plain.fuses == []

        pinned = dataflow_to_dsn(flow, registry)
        pinned.fuses = [DsnFuse(members=chain)
                        for chain in plan_fusion(pinned)]
        assert [hint.members for hint in pinned.fuses] == [("f", "g")]
        # And the pinned program round-trips through the parser.
        assert parse_dsn(pinned.render()) == pinned
