"""Unit tests for the offline batch ETL baseline."""

import pytest

from repro.baselines.batch_etl import BatchEtlPipeline
from repro.dataflow.ops import FilterSpec
from repro.dsn.ast import DsnProgram
from repro.errors import ValidationError
from repro.pubsub.subscription import SubscriptionFilter


def batch_flow() -> DsnProgram:
    flow = DsnProgram("batch")
    src = flow.add_source(SubscriptionFilter(sensor_type="temperature"),
                          node_id="src")
    hot = flow.add_operator(FilterSpec("temperature > 24"), node_id="hot")
    sink = flow.add_sink("warehouse", node_id="dw")
    flow.connect(src, hot)
    flow.connect(hot, sink)
    return flow


def collecting(stack) -> BatchEtlPipeline:
    """The baseline over ``batch_flow``, collecting on the hub."""
    pipeline = BatchEtlPipeline(stack.netsim, stack.broker_network,
                                batch_flow(), collection_node="hub")
    pipeline.start_collection()
    return pipeline


class TestBatchPipeline:
    def test_collects_raw_then_loads_filtered(self, stack):
        pipeline = collecting(stack)
        stack.run_until(14 * 3600.0)
        report = pipeline.close_batch()
        assert report.collected > 0
        assert 0 < report.loaded < report.collected  # filter applied at close
        assert len(pipeline.warehouse) == report.loaded

    def test_staleness_is_half_period_scale(self, stack):
        pipeline = collecting(stack)
        stack.run_until(4 * 3600.0)
        report = pipeline.close_batch()
        # Uniform arrivals over 4h -> mean staleness ~2h.
        assert report.mean_staleness == pytest.approx(2 * 3600.0, rel=0.1)

    def test_collection_stops_at_close(self, stack):
        pipeline = collecting(stack)
        stack.run_until(3600.0)
        report = pipeline.close_batch()
        collected = pipeline.collected
        stack.run_until(7200.0)
        # Only messages already in flight at close time may still land.
        assert pipeline.collected - collected <= len(
            stack.broker_network.registry.by_type("temperature"))

    def test_invalid_flow_rejected(self, stack):
        flow = batch_flow()
        flow.services = [s for s in flow.services if s.name != "dw"]
        with pytest.raises(ValidationError):
            BatchEtlPipeline(stack.netsim, stack.broker_network, flow,
                             collection_node="hub")

    def test_ships_everything_unfiltered(self, stack):
        # The defining property: raw tuples cross the network even though
        # the dataflow would filter most of them.
        pipeline = collecting(stack)
        stack.run_until(3 * 3600.0)  # cool morning: filter passes ~nothing
        report = pipeline.close_batch()
        assert report.collected > 100
        assert report.loaded < report.collected * 0.2
