"""Unit tests for the granularity lattices."""

import pytest

from repro.errors import GranularityError
from repro.stt.granularity import (
    SPATIAL_GRANULARITIES,
    TEMPORAL_GRANULARITIES,
    common_spatial,
    common_temporal,
    spatial_granularity,
    temporal_granularity,
    temporal_conversion_factor,
)


class TestTemporalResolution:
    def test_canonical_names_resolve(self):
        for name in TEMPORAL_GRANULARITIES:
            assert temporal_granularity(name).name == name

    @pytest.mark.parametrize(
        "alias,canonical",
        [("s", "second"), ("min", "minute"), ("h", "hour"), ("d", "day"),
         ("w", "week"), ("months", "month"), ("y", "year")],
    )
    def test_aliases_resolve(self, alias, canonical):
        assert temporal_granularity(alias).name == canonical

    def test_case_and_whitespace_insensitive(self):
        assert temporal_granularity("  Hour ").name == "hour"

    def test_unknown_raises(self):
        with pytest.raises(GranularityError, match="unknown temporal"):
            temporal_granularity("fortnight")

    def test_idempotent_on_granularity_objects(self):
        hour = temporal_granularity("hour")
        assert temporal_granularity(hour) is hour


class TestTemporalOrdering:
    def test_chain_is_strictly_increasing_in_seconds(self):
        sizes = [g.seconds for g in sorted(
            TEMPORAL_GRANULARITIES.values(), key=lambda g: g.rank)]
        assert sizes == sorted(sizes)
        assert len(set(sizes)) == len(sizes)

    def test_finer_coarser_relations(self):
        second = temporal_granularity("second")
        day = temporal_granularity("day")
        assert second.is_finer_than(day)
        assert day.is_coarser_than(second)
        assert not second.is_coarser_than(day)
        assert not second.is_finer_than(second)

    def test_expected_sizes(self):
        assert temporal_granularity("minute").seconds == 60.0
        assert temporal_granularity("hour").seconds == 3600.0
        assert temporal_granularity("day").seconds == 86400.0
        assert temporal_granularity("week").seconds == 7 * 86400.0

    def test_irregular_flags(self):
        assert not temporal_granularity("month").regular
        assert not temporal_granularity("year").regular
        assert temporal_granularity("day").regular


class TestCommonGranularity:
    def test_common_temporal_is_the_coarsest(self):
        assert common_temporal("second", "hour", "minute").name == "hour"

    def test_common_temporal_single(self):
        assert common_temporal("day").name == "day"

    def test_common_temporal_empty_raises(self):
        with pytest.raises(GranularityError):
            common_temporal()

    def test_common_spatial_is_the_coarsest(self):
        assert common_spatial("point", "city", "district").name == "city"

    def test_common_spatial_empty_raises(self):
        with pytest.raises(GranularityError):
            common_spatial()


class TestConversionFactor:
    def test_minutes_per_hour(self):
        assert temporal_conversion_factor("minute", "hour") == 60.0

    def test_seconds_per_day(self):
        assert temporal_conversion_factor("second", "day") == 86400.0

    def test_identity(self):
        assert temporal_conversion_factor("hour", "hour") == 1.0

    def test_wrong_direction_raises(self):
        with pytest.raises(GranularityError, match="cannot convert"):
            temporal_conversion_factor("hour", "minute")


class TestSpatial:
    def test_chain_cells_grow(self):
        sizes = [g.cell_meters for g in sorted(
            SPATIAL_GRANULARITIES.values(), key=lambda g: g.rank)]
        assert sizes == sorted(sizes)

    def test_point_is_finest(self):
        point = spatial_granularity("point")
        assert all(
            point.rank <= g.rank for g in SPATIAL_GRANULARITIES.values())
        assert point.cell_meters == 0.0

    @pytest.mark.parametrize(
        "alias,canonical",
        [("state", "prefecture"), ("town", "city"), ("neighbourhood", "district")],
    )
    def test_spatial_aliases(self, alias, canonical):
        assert spatial_granularity(alias).name == canonical

    def test_unknown_spatial_raises(self):
        with pytest.raises(GranularityError, match="unknown spatial"):
            spatial_granularity("galaxy")
