"""Unit tests for the fusion planner (maximal non-blocking chains)."""

import inspect

import pytest

from repro.dataflow.fusion import (
    FUSIBLE_KINDS,
    chains_for,
    plan_fusion,
    validate_chains,
)
from repro.dsn.ast import (
    DsnChannel,
    DsnFuse,
    DsnProgram,
    DsnService,
    DsnShard,
    ServiceRole,
)
from repro.errors import DsnError


def _program(ops, channels, shards=()):
    """Build a program: source "src" -> ops -> sink "k", plus ``channels``.

    ``ops`` maps service name -> kind; ``channels`` are (source, target)
    or (source, target, port) triples.
    """
    program = DsnProgram(name="p")
    program.services.append(
        DsnService(role=ServiceRole.SOURCE, name="src", kind="sensor-stream")
    )
    for name, kind in ops.items():
        program.services.append(
            DsnService(role=ServiceRole.OPERATOR, name=name, kind=kind)
        )
    program.services.append(
        DsnService(role=ServiceRole.SINK, name="k", kind="collector")
    )
    for edge in channels:
        port = edge[2] if len(edge) > 2 else 0
        program.channels.append(DsnChannel(edge[0], edge[1], port))
    for service, count in shards:
        program.shards.append(
            DsnShard(service=service, count=count, keys=("station",))
        )
    return program


def _linear(kinds):
    """src -> a -> b -> ... -> k with one operator per kind."""
    names = [f"op{i}" for i in range(len(kinds))]
    ops = dict(zip(names, kinds))
    path = ["src", *names, "k"]
    channels = list(zip(path, path[1:]))
    return _program(ops, channels), names


class TestPlanner:
    def test_linear_chain_fuses_whole(self):
        program, names = _linear(["filter", "transform", "validate",
                                  "virtual-property"])
        assert plan_fusion(program) == [tuple(names)]

    def test_every_fusible_kind_participates(self):
        program, names = _linear(sorted(FUSIBLE_KINDS))
        assert plan_fusion(program) == [tuple(names)]

    def test_single_operator_is_not_a_chain(self):
        program, _ = _linear(["filter"])
        assert plan_fusion(program) == []

    def test_blocking_operator_splits_chain(self):
        # f -> t -> AGG -> v -> c: the aggregation never joins, leaving
        # one chain on each side.
        program, _ = _linear(
            ["filter", "transform", "aggregation", "validate", "cull-time"]
        )
        assert plan_fusion(program) == [("op0", "op1"), ("op3", "op4")]

    def test_trigger_never_joins(self):
        program, _ = _linear(["filter", "trigger-on", "transform"])
        assert plan_fusion(program) == []

    def test_sharded_member_excluded(self):
        program, names = _linear(["filter", "transform", "validate"])
        program.shards.append(
            DsnShard(service="op1", count=4, keys=("station",))
        )
        # op1 runs as 4 replica processes; nothing is left to pair with.
        assert plan_fusion(program) == []

    def test_shard_count_one_does_not_block(self):
        program, names = _linear(["filter", "transform"])
        program.shards.append(
            DsnShard(service="op1", count=1, keys=("station",))
        )
        assert plan_fusion(program) == [tuple(names)]

    def test_cross_cut_subscriber_blocks_hop(self):
        # a -> b but a also feeds a second sink: eliding a -> b would
        # hide a's output stream from the tap, so the hop must stay.
        program = _program(
            {"a": "filter", "b": "transform"},
            [("src", "a"), ("a", "b"), ("a", "k"), ("b", "k")],
        )
        assert plan_fusion(program) == []

    def test_fan_in_blocks_hop(self):
        # b has two producers; a -> b is not a private hop.
        program = _program(
            {"a": "filter", "b": "transform"},
            [("src", "a"), ("src", "b"), ("a", "b")],
        )
        assert plan_fusion(program) == []

    def test_head_may_have_fan_in_tail_may_fan_out(self):
        # Fan-in into the head and fan-out from the tail are fine: only
        # interior hops collapse.
        program = _program(
            {"a": "filter", "b": "transform"},
            [("src", "a"), ("src", "a", 0), ("a", "b"), ("b", "k"),
             ("b", "k", 0)],
        )
        # "src" -> "a" twice gives a in-degree 2; a -> b is still the
        # only channel out of a and into b.
        assert plan_fusion(program) == [("a", "b")]

    def test_two_disjoint_chains(self):
        program = _program(
            {"a": "filter", "b": "transform", "g": "aggregation",
             "c": "validate", "d": "cull-space"},
            [("src", "a"), ("a", "b"), ("b", "g"), ("g", "c"), ("c", "d"),
             ("d", "k")],
        )
        assert plan_fusion(program) == [("a", "b"), ("c", "d")]


class TestValidateChains:
    def test_valid_chain_accepted(self):
        program, names = _linear(["filter", "transform", "validate"])
        validate_chains(program, [tuple(names)])

    def test_short_chain_rejected(self):
        program, _ = _linear(["filter", "transform"])
        with pytest.raises(DsnError, match="at least 2"):
            validate_chains(program, [("op0",)])

    def test_overlap_rejected(self):
        program, _ = _linear(["filter", "transform", "validate"])
        with pytest.raises(DsnError, match="more than one"):
            validate_chains(program, [("op0", "op1"), ("op1", "op2")])

    def test_non_fusible_hop_rejected(self):
        program, _ = _linear(["filter", "aggregation"])
        with pytest.raises(DsnError, match="not a fusible hop"):
            validate_chains(program, [("op0", "op1")])

    def test_skipping_a_member_rejected(self):
        # op0 -> op2 is not a channel; the hint must follow real hops.
        program, _ = _linear(["filter", "transform", "validate"])
        with pytest.raises(DsnError, match="not a fusible hop"):
            validate_chains(program, [("op0", "op2")])


class TestChainsFor:
    def test_planner_is_default(self):
        program, names = _linear(["filter", "transform"])
        assert chains_for(program) == [tuple(names)]

    def test_explicit_hints_pin_the_plan(self):
        # The planner would fuse all three; an explicit hint keeps the
        # plan to the declared pair.
        program, _ = _linear(["filter", "transform", "validate"])
        program.fuses.append(DsnFuse(members=("op0", "op1")))
        assert chains_for(program) == [("op0", "op1")]

    def test_explicit_hints_validated(self):
        program, _ = _linear(["filter", "aggregation"])
        program.fuses.append(DsnFuse(members=("op0", "op1")))
        with pytest.raises(DsnError, match="not a fusible hop"):
            chains_for(program)

    def test_the_plan_has_no_off_switch(self):
        assert list(inspect.signature(chains_for).parameters) == ["program"]
