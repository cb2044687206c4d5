"""Unit tests for the ``fuse`` clause (render, parse, check)."""

import pytest

from repro.dataflow.fusion import plan_fusion
from repro.dataflow.graph import Dataflow
from repro.dataflow.ops import FilterSpec, TransformSpec
from repro.dsn.ast import (
    DsnChannel,
    DsnFuse,
    DsnProgram,
    DsnService,
    ServiceRole,
)
from repro.dsn.generate import dataflow_to_dsn
from repro.dsn.parse import parse_dsn
from repro.errors import DsnError, DsnParseError
from repro.network.topology import Topology
from repro.pubsub.registry import SensorRegistry
from repro.pubsub.subscription import SubscriptionFilter
from repro.sensors.osaka import osaka_fleet
from tests.builders import dsn_chain


def fusible_program(*fuses) -> DsnProgram:
    """src -> f -> g -> k with a fusible operator pair, and ``fuses``
    (member tuples) declared."""
    program = dsn_chain(("f", "filter", {"condition": "rain_rate > 10"}),
                     ("g", "transform", {"assignments": {"x": "rain_rate * 2"}}))
    program.fuses.extend(DsnFuse(members=members) for members in fuses)
    return program


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
        program = fusible_program()
        program.services.append(
            DsnService(role=ServiceRole.OPERATOR, name="h", kind="validate",
                       params={"condition": "x >= 0"})
        )
        program.channels.append(DsnChannel("g", "h", 0))
        program.fuses.append(DsnFuse(members=("f", "g", "h")))
        parsed = parse_dsn(program.render())
        assert parsed.fuses[0].members == ("f", "g", "h")

    def test_single_member_fuse_is_a_parse_error(self):
        text = fusible_program().render().replace("}", '  fuse "f";\n}', 1)
        # The closing brace of the first service block is the first "}";
        # the injected statement is malformed wherever it lands.
        with pytest.raises(DsnParseError):
            parse_dsn(text)


class TestCheck:
    def test_undeclared_member_rejected(self):
        program = fusible_program(("f", "ghost"))
        with pytest.raises(DsnError, match="undeclared"):
            program.check()

    def test_non_operator_member_rejected(self):
        program = fusible_program(("f", "k"))
        with pytest.raises(DsnError, match="not an operator"):
            program.check()

    def test_short_chain_rejected(self):
        program = fusible_program(("f",))
        with pytest.raises(DsnError, match="at least 2"):
            program.check()

    def test_overlapping_hints_rejected(self):
        program = fusible_program(("f", "g"), ("g", "f"))
        with pytest.raises(DsnError, match="more than one"):
            program.check()


class TestGenerate:
    def test_translator_emits_no_hints_by_default(self):
        registry = SensorRegistry()
        for sensor in osaka_fleet(Topology.star(leaf_count=2)):
            registry.register(sensor.metadata)

        flow = Dataflow("flow")
        flow.add_source(SubscriptionFilter(sensor_type="temperature"),
                              node_id="src")
        flow.add_operator(FilterSpec(condition="temperature > 24"),
                          node_id="f")
        flow.add_operator(TransformSpec(assignments={"x": "temperature * 2"}),
                          node_id="g")
        flow.add_sink(sink_kind="collector", node_id="k")
        flow.connect("src", "f")
        flow.connect("f", "g")
        flow.connect("g", "k")

        plain = dataflow_to_dsn(flow, registry)
        assert plain.fuses == []

        pinned = dataflow_to_dsn(flow, registry)
        pinned.fuses = [DsnFuse(members=chain)
                        for chain in plan_fusion(pinned)]
        assert [hint.members for hint in pinned.fuses] == [("f", "g")]
        # And the pinned program round-trips through the parser.
        assert parse_dsn(pinned.render()) == pinned
