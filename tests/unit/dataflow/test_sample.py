"""Unit tests for sample-based step-by-step debugging: the preview
deploys the canvas on a throwaway simulator and replays the samples at
their stamp times, so windows flush per interval and triggers gate their
sources, as in the deployed plan.
"""

import pytest

from repro.dataflow.ops import (
    AggregationSpec, FilterSpec, JoinSpec, TriggerOnSpec,
)
from repro.designer.preview import sample_from_sensors
from repro.designer.session import DesignerSession
from repro.errors import DataflowError, ValidationError
from repro.pubsub.subscription import SubscriptionFilter
from repro.scenario import build_stack
from repro.sensors.osaka import OSAKA_AREA
from repro.sensors.physical import temperature_sensor
from repro.sensors.social import twitter_sensor
from repro.stt.spatial import Point
from tests.builders import Dormant, dsn, pipeline, reading
from tests.unit.dsn.test_check import by_id


@pytest.fixture
def session() -> DesignerSession:
    return DesignerSession(build_stack().executor, name="sampled")


def temperatures(sensor_id: str, values, start: float = 0.0) -> list:
    return [
        reading(sensor_id, i, start + 60.0 * i, temperature=float(value),
                station="umeda")
        for i, value in enumerate(values)
    ]


def sampled(*operators):
    """``src -> operators... -> k`` over the umeda temperature sensor
    (by default through one filter, ``hot``)."""
    return pipeline("sampled", *operators or [
        ("hot", FilterSpec("temperature > 24"))], sink="k",
        match=SubscriptionFilter.for_sensor("osaka-temp-umeda"))


class TestRunSample:
    def test_per_node_outputs(self, session):
        session.flow = sampled()
        samples = {"src": temperatures("osaka-temp-umeda", range(20, 30))}
        result = session.preview(samples=samples)
        assert len(result.at("src")) == 10
        assert len(result.at("hot")) == 5
        assert len(result.at("k")) == 5  # sink shows what arrives

    def test_chained_windows_flush_through(self, session):
        # The hourly MAX sees the hourly AVG's row one flush later: the
        # preview runs until both windows have closed over the samples.
        session.flow = sampled(*(
            (name, AggregationSpec(interval=3600.0, attributes=(attribute,),
                                   function=function))
            for name, function, attribute in (
                ("avg", "AVG", "temperature"),
                ("max", "MAX", "avg_temperature"))))
        samples = {"src": temperatures("osaka-temp-umeda", [20.0, 22.0])}
        result = session.preview(samples=samples)
        assert [row["avg_temperature"] for row in result.at("avg")] == [21.0]
        assert [row["max_avg_temperature"] for row in result.at("k")] == [21.0]

    def test_join_preview(self, session):
        session.flow = dsn(
            "a > j:0", "b > j:1", "j > k", name="sampled", k="collector",
            a=by_id("osaka-temp-umeda"), b=by_id("osaka-temp-namba"),
            j=JoinSpec(interval=60.0, predicate="left.station == right.station"))
        samples = {
            "a": [reading("osaka-temp-umeda", 0, 0.0, temperature=20.0,
                          station="umeda")],
            "b": [
                reading("osaka-temp-namba", 0, 1.0, temperature=21.0,
                        station="umeda"),
                reading("osaka-temp-namba", 1, 2.0, temperature=22.0,
                        station="namba"),
            ],
        }
        result = session.preview(samples=samples)
        assert len(result.at("j")) == 1

    def test_trigger_dry_run_commands(self, session):
        session.flow = dsn(
            "temp > trig", "src > k", "trig ~ src", name="sampled",
            temp=by_id("osaka-temp-umeda"),
            src=Dormant(by_id("osaka-rain-umeda")), k="collector",
            trig=TriggerOnSpec(interval=60.0, condition="avg_temperature > 25",
                               targets=("osaka-rain-umeda",)))
        samples = {
            "temp": temperatures("osaka-temp-umeda", [30.0]),
            "src": [
                reading("osaka-rain-umeda", seq, time, rain_rate=5.0,
                        station="umeda")
                for seq, time in enumerate((10.0, 100.0))
            ],
        }
        result = session.preview(samples=samples)
        assert result.commands[0].activate is True
        assert result.commands[0].issued_at == 60.0
        # The source is dormant until the command: the reading at t=10
        # is suppressed, the one at t=100 passes.
        assert [t.stamp.time for t in result.at("src")] == [100.0]
        assert [t.stamp.time for t in result.at("k")] == [100.0]

    def test_invalid_flow_raises(self, session):
        session.flow = sampled(("bad", FilterSpec("ghost > 1")))
        with pytest.raises(ValidationError):
            session.preview(
                samples={"src": temperatures("osaka-temp-umeda", [20.0])})

    def test_dangling_operator_raises(self, session):
        # The preview's taps would give the filter an output; the canvas
        # as drawn has none, so it is invalid.
        session.flow = dsn("src > hot", "src > k", name="sampled",
                           src=by_id("osaka-temp-umeda"),
                           hot=FilterSpec("temperature > 24"), k="collector")
        with pytest.raises(ValidationError, match="hot"):
            session.preview(
                samples={"src": temperatures("osaka-temp-umeda", [20.0])})

    def test_missing_sample_batch_raises(self, session):
        session.flow = sampled()
        with pytest.raises(DataflowError, match="no sample batch"):
            session.preview(samples={})

    def test_unregistered_sample_sensor_raises(self, session):
        session.flow = sampled()
        with pytest.raises(DataflowError, match="ghost-sensor"):
            session.preview(
                samples={"src": temperatures("ghost-sensor", [20.0])})


class TestSampleFromSensors:
    def test_probes_requested_count(self):
        flow = sampled()
        sensor = temperature_sensor("t1", Point(34.69, 135.50), "edge-0")
        batches = sample_from_sensors(flow, {"src": sensor}, count=5, start=0.0)
        assert len(batches["src"]) == 5
        times = [t.stamp.time for t in batches["src"]]
        assert times == sorted(times)

    def test_unknown_source_raises(self):
        flow = sampled()
        sensor = temperature_sensor("t1", Point(34.69, 135.50), "edge-0")
        with pytest.raises(DataflowError):
            sample_from_sensors(flow, {"ghost": sensor})

    def test_sparse_sensor_bounded_attempts(self):
        flow = sampled()
        sensor = twitter_sensor("tw1", OSAKA_AREA, "edge-0")
        batches = sample_from_sensors(flow, {"src": sensor}, count=3)
        assert len(batches["src"]) <= 3  # may be fewer; must terminate
