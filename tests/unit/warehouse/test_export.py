"""Unit tests for warehouse export (denormalised rows)."""

from repro.warehouse.loader import EventWarehouse


class TestIterRows:
    def test_denormalised_rows(self, make_tuple):
        warehouse = EventWarehouse()
        warehouse.load(make_tuple(0, temperature=25.5, time=3725.0))
        rows = list(warehouse.iter_rows())
        assert len(rows) == 1
        row = rows[0]
        assert row["event_time"] == 3725.0
        assert row["time_granularity"] == "second"
        assert row["source"] == "sensor-1"
        assert row["themes"] == ["weather/temperature"]
        assert row["measures"]["temperature"] == 25.5
        assert row["attributes"]["station"] == "station-1"

    def test_order_is_load_order(self, make_tuple):
        warehouse = EventWarehouse()
        for i in range(5):
            warehouse.load(make_tuple(i, time=float(i)))
        ids = [row["fact_id"] for row in warehouse.iter_rows()]
        assert ids == [0, 1, 2, 3, 4]
