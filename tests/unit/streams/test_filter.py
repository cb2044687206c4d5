"""Unit tests for the Filter operator — σ(s, cond).

What it keeps and drops is a table in the Table 1 spec
(``tests/oracle/test_table1_spec.py``); the ``case`` lines below run
that table's rows.
"""

import pytest

from repro.errors import StreamLoaderError
from repro.streams.filter import FilterOperator
from tests.oracle.test_table1_spec import case


class TestFilter:
    test_passes_matching = case("filter")
    test_drops_non_matching = case("filter")
    test_boundary_not_included = case("filter")
    test_compound_condition = case("filter")
    test_stats_counted = case("filter")
    test_error_quarantine = case("filter")

    def test_tuple_passes_unmodified(self, make_tuple):
        tuple_ = make_tuple(0)
        assert FilterOperator("humidity >= 0").on_tuple(tuple_)[0] is tuple_

    def test_is_non_blocking(self):
        op = FilterOperator("temperature > 24")
        assert not op.is_blocking
        assert op.interval is None
        assert op.on_timer(100.0) == []

    def test_describe_shows_sigma(self):
        assert "σ" in FilterOperator("temperature > 24").describe()

    def test_reset_clears_stats(self, make_tuple):
        op = FilterOperator("temperature > 24")
        op.on_tuple(make_tuple(0, temperature=30.0))
        op.reset()
        assert op.stats.tuples_in == 0

    def test_invalid_port_raises(self, make_tuple):
        with pytest.raises(StreamLoaderError, match="invalid port"):
            FilterOperator("temperature > 24").on_tuple(make_tuple(0), port=1)
