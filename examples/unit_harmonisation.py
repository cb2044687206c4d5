"""Unit and coordinate harmonisation across heterogeneous stations.

The paper's Transform requirement: "changing the unit of measure (e.g.
from yards to meters) or geographical coordinates (from one standard to
another one); ... checking that data conform to given validation rules".

This example simulates a federation of three agencies publishing the same
physical quantity in different conventions (°C vs °F, m/s vs knots), runs
a per-agency Transform to the common convention, validates the harmonised
streams, and aggregates them into one comparable hourly series — classic
multi-provider ETL, on-line.

Run:  python examples/unit_harmonisation.py
"""

from repro import (
    AggregationSpec,
    Dataflow,
    TransformSpec,
    ValidateSpec,
    build_stack,
)
from repro.pubsub.registry import SensorMetadata
from repro.pubsub.subscription import SubscriptionFilter
from repro.schema.schema import StreamSchema
from repro.sensors.base import SimulatedSensor
from repro.stt.spatial import Point


def fahrenheit_station(sensor_id: str, node_id: str) -> SimulatedSensor:
    """A U.S.-convention station: temperature in °F, wind in knots."""
    schema = StreamSchema.build(
        [("temp_f", "float", "fahrenheit"), ("wind_kn", "float", "knot"),
         ("station", "string")],
        themes=("weather/temperature",),
    )
    metadata = SensorMetadata(
        sensor_id=sensor_id, sensor_type="intl-weather", schema=schema,
        frequency=1.0 / 120.0, location=Point(34.70, 135.51),
        node_id=node_id, description="US-convention station",
    )

    def generate(now, rng):
        celsius = 22.0 + 6.0 * __import__("math").cos(
            2 * 3.14159 * ((now % 86400.0) / 86400.0 - 14.0 / 24.0)
        ) + rng.normal(0, 0.4)
        return {
            "temp_f": round(celsius * 9 / 5 + 32, 1),
            "wind_kn": round(max(0.0, rng.normal(6.0, 2.0)), 1),
            "station": sensor_id,
        }

    return SimulatedSensor(metadata, generate)


def main() -> None:
    stack = build_stack(hot=True, attach_fleet=False)
    foreign = fahrenheit_station("us-station-1", "edge-0")
    foreign.attach(stack.broker_network, stack.clock)

    flow = Dataflow("harmonise")
    src = flow.add_source(SubscriptionFilter(sensor_type="intl-weather"),
                          node_id="us-feed")
    to_si = flow.add_operator(
        TransformSpec(
            assignments={
                "temp_f": "convert(temp_f, 'fahrenheit', 'celsius')",
                "wind_kn": "convert(wind_kn, 'knot', 'mps')",
            },
            rename={"temp_f": "temperature", "wind_kn": "wind_speed"},
        ),
        node_id="to-si",
    )
    guard = flow.add_operator(
        ValidateSpec(rules=(
            "between(temperature, -50, 60)",
            "wind_speed >= 0",
            "matches(station, '[a-z0-9-]+')",
        )),
        node_id="sanity",
    )
    hourly = flow.add_operator(
        AggregationSpec(interval=3600.0,
                        attributes=("temperature", "wind_speed"),
                        function="AVG"),
        node_id="hourly",
    )
    dw = flow.add_sink("warehouse", node_id="dw")
    flow.connect(src, to_si)
    flow.connect(to_si, guard)
    flow.connect(guard, hourly)
    flow.connect(hourly, dw)

    from repro import check, dataflow_to_dsn

    registry = stack.broker_network.registry
    report = check(dataflow_to_dsn(flow, registry), registry)
    print("consistent:", report.is_valid)
    print("harmonised schema:", report.schemas["sanity"].describe())

    stack.executor.deploy(flow)
    stack.run_until(24 * 3600.0)

    print()
    print("hourly SI-unit series (from °F/knot inputs):")
    for row in stack.warehouse.query().rollup_time("hour", "avg_temperature",
                                                   "avg"):
        print(f"  {row.group[0] / 3600.0:04.1f}h  {row.value:5.1f} °C")
    wind_rows = stack.warehouse.query().rollup_time("hour", "avg_wind_speed",
                                                    "avg")
    mean_wind = sum(r.value for r in wind_rows) / len(wind_rows)
    print(f"mean wind over the day: {mean_wind:.1f} m/s "
          f"(converted from knots)")


if __name__ == "__main__":
    main()
