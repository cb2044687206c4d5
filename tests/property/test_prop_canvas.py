"""Property: schema inference is total on valid canvases.

Random operator chains whose every step is sound where it stands (each
condition names attributes present there) must validate, with a schema
at every node.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.ops import (
    AggregationSpec, CullTimeSpec, FilterSpec, TransformSpec, ValidateSpec,
    VirtualPropertySpec,
)
from repro.designer.preview import replay_samples
from repro.dsn.check import check
from repro.network.topology import Topology
from repro.pubsub.registry import SensorRegistry
from repro.pubsub.subscription import SubscriptionFilter
from repro.schema.schema import StreamSchema
from tests.builders import pipeline, reading, sensor_metadata


def base_schema() -> StreamSchema:
    return StreamSchema.build(
        [("temperature", "float", "celsius"), ("humidity", "float"),
         ("station", "string")],
        themes=("weather/temperature",),
    )


@st.composite
def operator_chain(draw):
    """A list of spec-factories; each factory maps current schema -> spec."""
    steps = []
    count = draw(st.integers(min_value=1, max_value=8))
    fresh = iter(f"v{i}" for i in range(100))
    for _ in range(count):
        kind = draw(st.sampled_from(
            ["filter", "virtual", "transform", "cull", "validate", "agg"]
        ))
        if kind == "filter":
            threshold = draw(st.integers(-20, 40))
            steps.append(lambda schema, t=threshold: FilterSpec(
                f"{_numeric_attr(schema)} > {t}"
            ))
        elif kind == "virtual":
            name = next(fresh)
            steps.append(lambda schema, n=name: VirtualPropertySpec(
                n, f"{_numeric_attr(schema)} * 2"
            ))
        elif kind == "transform":
            steps.append(lambda schema: TransformSpec(
                assignments={_numeric_attr(schema): f"{_numeric_attr(schema)} + 1"}
            ))
        elif kind == "cull":
            rate = draw(st.integers(1, 10))
            steps.append(lambda schema, r=rate: CullTimeSpec(
                rate=r, start=0.0, end=1e6
            ))
        elif kind == "validate":
            steps.append(lambda schema: ValidateSpec(
                rules=(f"is_finite({_numeric_attr(schema)})",)
            ))
        else:
            interval = draw(st.sampled_from([60.0, 600.0, 3600.0]))
            steps.append(lambda schema, i=interval: AggregationSpec(
                interval=i, attributes=(_numeric_attr(schema),),
                function="AVG",
            ))
    return steps


def _numeric_attr(schema: StreamSchema) -> str:
    for attr in schema.attributes:
        if attr.type.is_numeric:
            return attr.name
    raise AssertionError("chain construction kept a numeric attribute")


def registry() -> SensorRegistry:
    """One sensor advertising :func:`base_schema`."""
    registry = SensorRegistry()
    registry.register(replace(sensor_metadata("prop-sensor"),
                              schema=base_schema()))
    return registry


def canvas(steps):
    """The chain on a canvas, and the schema its sink should carry."""
    schema, operators = base_schema(), []
    for index, step in enumerate(steps):
        operators.append((f"op-{index}", step(schema)))
        schema = operators[-1][1].infer_schema([schema])
    return pipeline("generated", *operators, match=SubscriptionFilter()), schema


class TestCanvasTotality:
    @given(operator_chain())
    @settings(max_examples=100, deadline=None)
    def test_sound_chains_always_validate(self, steps):
        flow, schema = canvas(steps)

        sensors = registry()
        report = check(flow, sensors)
        assert report.is_valid, [str(issue) for issue in report.errors]
        # Inference was total: a schema exists at every canvas node.
        assert all(report.schemas[service.name] is not None
                   for service in flow.services)
        # And the sink's schema equals the chain's composition.
        assert report.schemas["out"].names == schema.names

    @given(operator_chain())
    @settings(max_examples=50, deadline=None)
    def test_sample_run_total_on_valid_chains(self, steps):
        """Every valid canvas also previews on samples without raising."""
        topology = Topology()
        topology.add_node("hub")
        flow, schema = canvas(steps)

        samples = {"src": [
            reading("prop-sensor", i, float(i), temperature=20.0 + i,
                    humidity=0.5, station="s")
            for i in range(6)
        ]}
        result = replay_samples(flow, samples, registry(), topology)
        # Outputs at the sink conform to the inferred schema.
        for tuple_ in result.at("out"):
            assert set(tuple_.payload) <= set(schema.names)
