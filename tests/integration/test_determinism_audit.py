"""Determinism audit: same seed, same knobs -> byte-identical runs.

The simulator's whole value rests on reproducibility: two runs of the
same scenario with the same seed must agree on *every* observable — the
metrics registry snapshot, the set of retained trace ids, and the exact
sink order — even with every PR-5 knob engaged at once (shards=4,
batch=32, trace sampling=0.5).  Any wall-clock or unseeded-``random``
leakage in the sharded merge plane, the batcher, or the samplers shows up
here as a diff.

Three scenarios are audited: the paper's Section 3 flow (where a blanket
shard request is a documented no-op — nothing there has a partition key),
the sharded per-station aggregation flow that actually exercises the
partitioner, envelopes, and merge stage, and the same sharded flow with
the elastic rebalance loop engaged on a hair-trigger policy — the
migration log itself becomes an audited observable, so a wall-clock or
unseeded-``random`` leak in the control loop (monitor sampling, policy
tie-breaks, barrier scheduling) shows up as a diff.
"""

import json

import pytest

from repro.runtime.rebalance import RebalanceConfig
from repro.scenario import (
    apply_batch_hints,
    build_stack,
    fused_pipeline_flow,
    osaka_scenario_flow,
    sharded_aggregation_flow,
)

SHARDS = 4
BATCH = 32
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
        "migrations": [
            (e.time, e.service, e.key, e.kind, e.from_shard, e.to_shards)
            for e in stack.executor.monitor.migration_log
        ],
    }


def _run(flow_builder, sink_names, shards, elastic=False):
    stack = build_stack(hot=True, seed=7, observability=SAMPLING,
                        batching=BATCH)
    if elastic:
        stack.executor.rebalance_config = AGGRESSIVE
    flow = flow_builder(stack)
    deployment = stack.executor.deploy(flow, shards=shards, elastic=elastic)
    apply_batch_hints(deployment, stack.fleet)
    stack.run_until(HOURS * 3600.0)
    return _observables(stack, deployment, sink_names)


class TestDeterminismAudit:
    @pytest.mark.parametrize(
        "flow_builder,sink_names,shards,elastic",
        [
            (osaka_scenario_flow, ("traffic-collector",), SHARDS, False),
            (sharded_aggregation_flow, ("averages",), SHARDS, False),
            (sharded_aggregation_flow, ("averages",), SHARDS, True),
            (fused_pipeline_flow, ("fused-out",), None, False),
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
        stack = build_stack(hot=True, seed=7, observability=SAMPLING,
                            batching=BATCH)
        deployment = stack.executor.deploy(
            sharded_aggregation_flow(stack), shards=SHARDS
        )
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
        assert audit["migrations"], "hair-trigger policy never acted"

    def test_fused_run_actually_fused(self):
        """Guard: the fused audit case really collapses the chain."""
        stack = build_stack(hot=True, seed=7, observability=SAMPLING,
                            batching=BATCH)
        deployment = stack.executor.deploy(fused_pipeline_flow(stack))
        stack.run_until(3600.0)
        assert {key: unit.services
                for key, unit in deployment.plan.units.items()
                if unit.role == "chain"} == {
            "keep+double+shift": ("keep", "double", "shift")
        }
        assert deployment.collected("fused-out")
