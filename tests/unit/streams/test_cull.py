"""Unit tests for Cull Time / Cull Space — γr(s, region).

What they keep and cull is a table in the Table 1 spec
(``tests/oracle/test_table1_spec.py``); the ``case`` lines run its rows.
"""

import pytest

from repro.errors import DataflowError, GranularityError
from repro.streams.cull import CullSpaceOperator, CullTimeOperator
from tests.oracle.test_table1_spec import case


class TestCullTime:
    test_reduces_inside_interval = case("cull-time")
    test_outside_interval_passes = case("cull-time")
    test_rate_one_keeps_all = case("cull-time")
    test_deterministic_pattern = case("cull-time")

    @pytest.mark.parametrize("bad", [0, -1, 1.5])
    def test_invalid_rate_raises(self, bad):
        with pytest.raises(DataflowError):
            CullTimeOperator(rate=bad, start=0.0, end=1.0)

    def test_backwards_interval_raises(self):
        with pytest.raises(GranularityError):
            CullTimeOperator(rate=2, start=10.0, end=0.0)

    def test_reset_restarts_counter(self, make_tuple):
        op = CullTimeOperator(rate=2, start=0.0, end=100.0)
        op.on_tuple(make_tuple(0, time=1.0))
        op.reset()
        # First matching tuple after reset is dropped again (counter = 1).
        assert op.on_tuple(make_tuple(1, time=2.0)) == []


class TestCullSpace:
    test_reduces_inside_area = case("cull-space")
    test_outside_area_passes = case("cull-space")
    test_mixed_traffic = case("cull-space")

    def test_corners_accepted_as_tuples(self):
        op = CullSpaceOperator(rate=2, corner1=(34.9, 135.7), corner2=(34.5, 135.3))
        assert op.area.south == 34.5  # normalised regardless of corner order

    def test_describe_mentions_rate(self):
        op = CullSpaceOperator(rate=7, corner1=(0.0, 0.0), corner2=(1.0, 1.0))
        assert "γ7" in op.describe()
