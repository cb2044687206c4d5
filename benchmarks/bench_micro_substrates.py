"""Micro-benchmarks of the substrates under the headline numbers.

Every Table 1 / Figure 1 measurement decomposes into these costs: the
expression engine (per-tuple condition evaluation), the discrete-event
clock (event scheduling/dispatch), the pub-sub data plane, and the
warehouse load path.  Tracked separately so a regression in any layer is
attributable.
"""

import pytest

from benchmarks.conftest import make_batch
from repro.expr.compile import compile_expression
from repro.network.simclock import SimClock
from repro.pubsub.broker import BrokerNetwork
from repro.pubsub.stamping import backfill_stamp
from repro.pubsub.subscription import SubscriptionFilter
from repro.warehouse.loader import EventWarehouse

BATCH = make_batch(1000)


@pytest.mark.benchmark(group="micro-expr")
class TestExpressionEngine:
    def test_compile(self, benchmark):
        benchmark(
            lambda: compile_expression(
                "temperature > 24 and humidity < 0.8 "
                "or contains(station, 'umeda')"
            )
        )

    def test_evaluate_simple(self, benchmark):
        expr = compile_expression("temperature > 24")
        values = BATCH[0].values()
        benchmark(lambda: [expr.evaluate_bool(values) for _ in range(1000)])

    def test_evaluate_with_functions(self, benchmark):
        expr = compile_expression(
            "convert(temperature, 'celsius', 'fahrenheit') > 75"
        )
        values = BATCH[0].values()
        benchmark(lambda: [expr.evaluate_bool(values) for _ in range(1000)])

    def test_type_check(self, benchmark):
        from repro.schema.schema import StreamSchema

        schema = StreamSchema.build(
            {"temperature": "float", "humidity": "float", "station": "string"}
        )
        expr = compile_expression("temperature > 24 and humidity < 0.8")
        benchmark(lambda: [expr.check_boolean(schema) for _ in range(100)])


@pytest.mark.benchmark(group="micro-clock")
class TestSimClock:
    def test_schedule_and_drain_10k(self, benchmark):
        def run():
            clock = SimClock()
            for index in range(10_000):
                clock.schedule(float(index % 97), lambda: None)
            clock.run()

        benchmark(run)

    def test_periodic_day_at_minute_cadence(self, benchmark):
        def run():
            clock = SimClock()
            ticks = []
            clock.schedule_periodic(60.0, lambda: ticks.append(1))
            clock.run_until(86_400.0)
            return len(ticks)

        assert benchmark(run) == 1440


@pytest.mark.benchmark(group="micro-pubsub")
class TestPubSubDataPlane:
    def test_publish_data_1k(self, benchmark):
        from tests.unit.pubsub.test_registry import make_metadata

        net = BrokerNetwork()
        metadata = make_metadata()
        net.publish(metadata)
        count = {"n": 0}
        net.subscribe("n1", SubscriptionFilter(sensor_type="temperature"),
                      lambda t: count.__setitem__("n", count["n"] + 1))
        reading = backfill_stamp({"v": 1.0}, metadata, now=0.0)
        benchmark(lambda: [net.publish_data("temp-1", reading)
                           for _ in range(1000)])
        assert count["n"] > 0


@pytest.mark.benchmark(group="micro-warehouse")
class TestWarehouseLoad:
    def test_load_1k_tuples(self, benchmark):
        def run():
            warehouse = EventWarehouse()
            for tuple_ in BATCH:
                warehouse.load(tuple_)
            return warehouse

        warehouse = benchmark(run)
        assert len(warehouse) == len(BATCH)

    def test_hourly_rollup_over_10k_facts(self, benchmark):
        warehouse = EventWarehouse()
        for tuple_ in make_batch(10_000):
            warehouse.load(tuple_)
        rows = benchmark(
            lambda: warehouse.query().rollup_time("hour", "temperature", "avg")
        )
        assert rows
