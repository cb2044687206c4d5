"""Unit tests for the Join operator — s1 ⋈ᵗ_pred s2.

Which pairs it emits is a table in the Table 1 spec
(``tests/oracle/test_table1_spec.py``); the ``case`` lines run its rows.
"""

import pytest

from repro.errors import DataflowError
from repro.streams.join import JoinOperator, merge_payloads
from tests.oracle.test_table1_spec import case


class TestMergePayloads:
    def test_no_collision(self):
        merged = merge_payloads({"a": 1}, {"b": 2}, "l", "r")
        assert merged == {"a": 1, "b": 2}

    def test_collision_prefixed(self):
        merged = merge_payloads({"a": 1, "x": 5}, {"a": 2}, "l", "r")
        assert merged == {"l_a": 1, "x": 5, "r_a": 2}


class TestJoin:
    test_cross_matching_pairs = case("join")
    test_empty_side_emits_nothing = case("join")
    test_window_tumbles_both_sides = case("join")
    test_theta_predicate = case("join")
    test_custom_prefixes = case("join")
    test_predicate_errors_counted_not_fatal = case("join")

    def test_two_ports(self):
        op = JoinOperator(interval=60.0, predicate="left.a == right.a")
        assert op.input_ports == 2

    def test_same_prefixes_raise(self):
        with pytest.raises(DataflowError):
            JoinOperator(interval=60.0, predicate="true",
                         left_prefix="x", right_prefix="x")


class TestJoinStamp:
    test_output_time_is_later_of_pair = case("join")
    test_themes_unioned = case("join")
    test_distinct_locations_produce_box = case("join")
    test_same_location_stays = case("join")

    def test_reset_clears_both_caches(self, make_tuple):
        op = JoinOperator(interval=60.0, predicate="true")
        op.on_tuple(make_tuple(0), port=0)
        op.on_tuple(make_tuple(1), port=1)
        op.reset()
        assert op.on_timer(60.0) == []
