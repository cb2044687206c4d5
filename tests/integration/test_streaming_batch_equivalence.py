"""Integration property: streaming and batch produce the same results.

The on-line execution and the offline batch baseline emit the same tuples
and differ only in cost and staleness; the batch replays through the
deployed plan, so an hourly window closes at the same instants in both.
The A1 ablation rests on this: its configurations compute the same thing.
"""

from repro.baselines.batch_etl import BatchEtlPipeline
from repro.dataflow.ops import (
    AggregationSpec, FilterSpec, TransformSpec, VirtualPropertySpec,
)
from repro.dsn.ast import DsnProgram
from repro.pubsub.subscription import SubscriptionFilter
from repro.scenario import build_stack
from tests.builders import pipeline

HOURS = 5.0
UMEDA = SubscriptionFilter(sensor_ids=("osaka-temp-umeda",))


def pipeline_flow(sink_kind: str) -> DsnProgram:
    return pipeline(
        f"equiv-{sink_kind}",
        ("enrich", VirtualPropertySpec("temp_f", "temperature * 1.8 + 32")),
        ("hot", FilterSpec("temp_f > 68")),
        ("shape", TransformSpec(project=("temp_f", "station"))),
        match=UMEDA, sink_kind=sink_kind)


def hourly_flow(sink_kind: str) -> DsnProgram:
    return pipeline(
        f"hourly-{sink_kind}", ("hourly", AggregationSpec(
            interval=3600.0, attributes=("temperature",), function="AVG")),
        match=UMEDA, sink_kind=sink_kind)


def canonical(payloads) -> list:
    return sorted((round(p["temp_f"], 6), p["station"]) for p in payloads)


class TestEquivalence:
    def test_streaming_equals_batch(self):
        # Streaming run.
        streaming = build_stack(hot=True, seed=11)
        deployment = streaming.executor.deploy(pipeline_flow("collector"))
        streaming.run_until(HOURS * 3600.0)
        stream_out = canonical(
            dict(t.payload) for t in deployment.collected("out"))

        # Batch run over an identically-seeded world.
        batch_world = build_stack(hot=True, seed=11)
        flow = pipeline_flow("warehouse")
        pipeline = BatchEtlPipeline(
            batch_world.netsim, batch_world.broker_network, flow,
            collection_node="hub", warehouse=batch_world.warehouse,
        )
        pipeline.start_collection()
        batch_world.run_until(HOURS * 3600.0)
        pipeline.close_batch()
        batch_out = canonical(
            {**fact.measures, **fact.attributes}
            for fact in batch_world.warehouse.facts
        )

        # In-flight stragglers at the cut-off can differ by a tuple or two;
        # everything that made it into both worlds must be identical.
        shorter = min(len(stream_out), len(batch_out))
        assert shorter > 0
        assert abs(len(stream_out) - len(batch_out)) <= 2
        assert stream_out[:shorter] == batch_out[:shorter]

    def test_hourly_average_streaming_equals_batch(self):
        # The batch replays through a deployment made at its first
        # reading's stamp, one sensor period in; the streaming flow is
        # deployed at that instant too, ahead of the reading, so both
        # close the same hourly windows.  The batch closes half a period
        # before the streaming run's fifth window does: it holds exactly
        # the readings of the five windows the streaming run flushes.
        streaming = build_stack(hot=True, seed=11, attach_fleet=False)
        first = streaming.sensor("osaka-temp-umeda").metadata.period
        end = first + HOURS * 3600.0
        deployed = []
        streaming.clock.schedule_at(first, lambda: deployed.append(
            streaming.executor.deploy(hourly_flow("collector"))))
        for sensor in streaming.fleet:
            sensor.attach(streaming.broker_network, streaming.clock)
        streaming.run_until(end)
        stream_out = [
            (row.stamp.time, row["avg_temperature"])
            for row in deployed[0].collected("out")
        ]

        batch_world = build_stack(hot=True, seed=11)
        pipeline = BatchEtlPipeline(
            batch_world.netsim, batch_world.broker_network,
            hourly_flow("warehouse"), collection_node="hub",
            warehouse=batch_world.warehouse,
        )
        pipeline.start_collection()
        batch_world.run_until(end - first / 2)
        report = pipeline.close_batch()
        batch_out = [
            (fact.event_time, fact.measures["avg_temperature"])
            for fact in batch_world.warehouse.facts
        ]

        assert len(stream_out) == int(HOURS)  # one row per closed hour
        assert report.loaded == len(batch_out)
        assert batch_out == stream_out

    def test_equivalence_breaks_with_different_seeds(self):
        streaming = build_stack(hot=True, seed=11)
        deployment = streaming.executor.deploy(pipeline_flow("collector"))
        streaming.run_until(HOURS * 3600.0)
        first = canonical(dict(t.payload) for t in deployment.collected("out"))

        other = build_stack(hot=True, seed=12)
        deployment2 = other.executor.deploy(pipeline_flow("collector"))
        other.run_until(HOURS * 3600.0)
        second = canonical(dict(t.payload) for t in deployment2.collected("out"))

        assert first != second  # the equivalence is per-world, not vacuous
