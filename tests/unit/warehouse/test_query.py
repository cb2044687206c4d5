"""Unit tests for warehouse queries and roll-ups."""

import pytest

from repro.errors import WarehouseError
from repro.stt.spatial import Box
from repro.warehouse.loader import EventWarehouse


@pytest.fixture
def warehouse(make_tuple) -> EventWarehouse:
    wh = EventWarehouse()
    # 6 hours of readings, one per 30 min, from two stations/themes.
    for i in range(12):
        wh.load(make_tuple(
            i, temperature=20.0 + i, time=i * 1800.0,
            themes=("weather/temperature",), source="temp-1",
        ))
    for i in range(6):
        wh.load(make_tuple(
            i, temperature=5.0, time=i * 3600.0, lat=35.68, lon=139.65,
            themes=("mobility/traffic",), source="traffic-1",
        ))
    return wh


class TestFilters:
    def test_theme_filter(self, warehouse):
        assert warehouse.query().theme("weather").count() == 12
        assert warehouse.query().theme("mobility/traffic").count() == 6
        assert warehouse.query().theme("social").count() == 0

    def test_source_filter(self, warehouse):
        assert warehouse.query().source("temp-1").count() == 12

    def test_source_filter_resolves_as_the_loader_interns(self, make_tuple):
        warehouse = EventWarehouse()
        warehouse.load(make_tuple(0, source=""))  # interned as "(unknown)"
        assert warehouse.query().source("").count() == 1
        assert warehouse.query().source("(unknown)").count() == 1
        assert warehouse.query().source("elsewhere").count() == 0

    def test_time_range(self, warehouse):
        assert warehouse.query().time_range(0.0, 3600.0).count() == 3
        with pytest.raises(WarehouseError):
            warehouse.query().time_range(10.0, 0.0)

    def test_area_filter(self, warehouse):
        osaka = Box(south=34.5, west=135.3, north=34.9, east=135.7)
        assert warehouse.query().area(osaka).count() == 12

    def test_where_measure(self, warehouse):
        hot = warehouse.query().where_measure("temperature", minimum=28.0)
        assert hot.count() == 4  # 28, 29, 30, 31

    def test_chaining(self, warehouse):
        count = (warehouse.query()
                 .theme("weather")
                 .time_range(0.0, 7200.0)
                 .where_measure("temperature", maximum=22.0)
                 .count())
        assert count == 3  # 20, 21, 22 at t=0, 1800, 3600

    def test_measure_values(self, warehouse):
        values = warehouse.query().theme("weather").measure_values("temperature")
        assert values.min() == 20.0 and values.max() == 31.0


class TestRollups:
    def test_rollup_time_hourly_avg(self, warehouse):
        rows = (warehouse.query().theme("weather")
                .rollup_time("hour", measure="temperature", agg="avg"))
        assert len(rows) == 6
        assert rows[0].group == (0.0,)
        assert rows[0].value == 20.5  # (20 + 21) / 2
        assert rows[0].count == 2

    def test_rollup_time_count(self, warehouse):
        rows = warehouse.query().rollup_time("day", measure="temperature",
                                             agg="count")
        assert len(rows) == 1
        assert rows[0].value == 18.0

    def test_unknown_aggregate_raises(self, warehouse):
        with pytest.raises(WarehouseError, match="unknown aggregate"):
            warehouse.query().rollup_time("hour", measure="temperature",
                                          agg="median")

    def test_rollup_rows_sorted(self, warehouse):
        rows = (warehouse.query().theme("weather")
                .rollup_time("hour", measure="temperature"))
        starts = [row.group[0] for row in rows]
        assert starts == sorted(starts)

    @pytest.mark.parametrize("agg,expected", [
        ("avg", 25.5), ("sum", 306.0), ("min", 20.0), ("max", 31.0),
    ])
    def test_aggregates(self, warehouse, agg, expected):
        rows = (warehouse.query().theme("weather")
                .rollup_time("day", measure="temperature", agg=agg))
        assert rows[0].value == expected
