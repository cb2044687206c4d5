"""Determinism audit: same seed, same knobs -> byte-identical runs.

Two runs of one scenario with one seed must agree on every observable —
the metrics snapshot, the retained trace ids, the exact sink order and
the whole execution log, line by line — with shards=4, ``batch 32 within
60`` on every source channel and trace sampling 0.5 engaged at once.
Audited: the Section 3 flow (where a blanket shard request is a no-op),
the sharded per-station aggregation, and that flow with the elastic loop
on a hair-trigger policy.  A wall-clock or unseeded-``random`` leak in
the merge plane, the batcher, the samplers or the control loop shows up
as a diff.
"""

import json

import pytest

from repro.dsn.generate import dataflow_to_dsn
from repro.pubsub.subscription import BatchingPolicy
from repro.runtime.rebalance import RebalanceConfig
from repro.scenario import (
    build_stack, osaka_scenario_flow, sharded_aggregation_flow,
)
from tests.builders import fused_pipeline

SHARDS = 4
#: ``within 60`` coalesces; under ``within 1`` every batch holds one reading.
BATCHING = BatchingPolicy(32, 60.0)
SAMPLING = 0.5
HOURS = 6.0

#: hair-trigger policy for the elastic case: any measurable imbalance
#: acts after a single epoch, so migrations definitely happen inside the
#: audited window.
AGGRESSIVE = RebalanceConfig(imbalance_ratio=1.01, hysteresis=1,
                             cooldown_epochs=2, split_hot_keys=True)


def _observables(stack, deployment, sink_names):
    """Everything a rerun must reproduce byte-for-byte."""
    sinks = {}
    for name in sink_names:
        sinks[name] = [
            (t.source, t.seq, t.stamp.time, sorted(t.payload.items()))
            for t in deployment.collected(name)
        ]
    return {
        "metrics": json.loads(stack.obs.metrics.to_json()),
        "trace_ids": sorted(stack.obs.tracer.trace_ids()),
        "traces_started": stack.obs.tracer.traces_started,
        "sinks": sinks,
        "assignments": deployment.assignments(),
        "warehouse": len(stack.warehouse),
        "sticker": stack.sticker.pushed,
        "dead_letters": stack.broker_network.data_messages_dead_lettered,
        "log": [str(record) for record in stack.executor.monitor.logs],
    }


def _deploy(flow_builder, shards=None, elastic=False):
    stack = build_stack(hot=True, seed=7, observability=SAMPLING)
    if elastic:
        stack.executor.rebalance_config = AGGRESSIVE
    return stack, stack.executor.deploy(dataflow_to_dsn(
        flow_builder(stack), batching=BATCHING, shards=shards,
        elastic=elastic))


def _run(flow_builder, sink_names, shards, elastic=False):
    stack, deployment = _deploy(flow_builder, shards, elastic)
    stack.run_until(HOURS * 3600.0)
    return _observables(stack, deployment, sink_names)


class TestDeterminismAudit:
    @pytest.mark.parametrize(
        "flow_builder,sink_names,shards,elastic",
        [
            (osaka_scenario_flow, ("traffic-collector",), SHARDS, False),
            (sharded_aggregation_flow, ("averages",), SHARDS, False),
            (sharded_aggregation_flow, ("averages",), SHARDS, True),
            (fused_pipeline, ("fused-out",), None, False),
        ],
        ids=["osaka-blanket-noop", "stations-sharded", "stations-elastic",
             "fused-chain"],
    )
    def test_same_seed_runs_are_byte_identical(self, flow_builder,
                                               sink_names, shards, elastic):
        first = _run(flow_builder, sink_names, shards, elastic)
        second = _run(flow_builder, sink_names, shards, elastic)
        assert first == second

    def test_sharded_run_actually_sharded(self):
        """Guard: the audited sharded run exercises the merge plane."""
        stack, deployment = _deploy(sharded_aggregation_flow, SHARDS)
        stack.run_until(3600.0)
        assert "station-avg" in deployment.shard_groups
        group = deployment.shard_groups["station-avg"]
        assert len(group.members) == SHARDS
        assert deployment.collected("averages")

    def test_elastic_run_actually_rebalances(self):
        """Guard: the elastic audit case is not vacuously identical — the
        hair-trigger policy really fires migrations inside the window."""
        audit = _run(sharded_aggregation_flow, ("averages",), SHARDS,
                     elastic=True)
        assert any(": key-" in line for line in audit["log"]), (
            "hair-trigger policy never acted")

    def test_fused_run_actually_fused(self):
        """Guard: the fused audit case really collapses the chain."""
        stack, deployment = _deploy(fused_pipeline)
        stack.run_until(3600.0)
        assert {key: unit.services
                for key, unit in deployment.plan.units.items()
                if unit.role == "chain"} == {
            "keep+double+shift": ("keep", "double", "shift")
        }
        assert deployment.collected("fused-out")

    def test_batched_run_actually_batches(self):
        """Guard: the audited flush bound coalesces — some published
        batch holds more than one reading (the 0.5 Hz tweets)."""
        stack, _ = _deploy(osaka_scenario_flow, SHARDS)
        stack.run_until(3600.0)
        sizes = stack.obs.metrics.get("broker_batch_size")
        assert sizes.sum > sizes.count
