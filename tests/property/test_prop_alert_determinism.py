"""Property: the alert history is a deployment invariant (DESIGN.md §12).

For one seed, the alert fire/resolve sequence and the whole ``repro
health --json`` payload are byte-identical across shard counts {1, 4}
and sensor batch sizes {1, 32}: the engine ticks at fixed instants
offset from flush boundaries and reads only shard-grouped state.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsn.ast import DsnSlo
from repro.dsn.generate import dataflow_to_dsn
from repro.pubsub.subscription import BatchingPolicy
from repro.scenario import build_stack, sharded_aggregation_flow

CONFIGS = ((1, 1), (1, 32), (4, 1), (4, 32))  # (shards, batch)


def run_health(seed: int, shards: int, batch: int, threshold: float) -> str:
    stack = build_stack(seed=seed, latency=True)
    flow = sharded_aggregation_flow(stack)
    program = dataflow_to_dsn(
        flow,
        batching=BatchingPolicy(batch),
        shards=shards if shards > 1 else None,
        slos=[
            DsnSlo(flow=flow.name, metric="watermark_lag", op="<",
                   threshold=threshold),
        ],
    )
    stack.executor.deploy(program)
    stack.run_until(2 * 3600.0)
    return json.dumps(stack.executor.alerts.health_json(
        stack.executor.monitor.logs), sort_keys=True)


@settings(max_examples=3, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    threshold=st.sampled_from((200.0, 450.0)),
)
def test_health_payload_identical_across_shards_and_batching(seed, threshold):
    payloads = {
        (shards, batch): run_health(seed, shards, batch, threshold)
        for shards, batch in CONFIGS
    }
    reference = payloads[(1, 1)]
    assert all(payload == reference for payload in payloads.values())
    # The run must be non-trivial: a tight threshold both fires and
    # resolves (the aggregation interval saw-tooths the lag through it).
    history = json.loads(reference)["history"]
    if threshold == 200.0:
        events = {entry[1] for entry in history}
        assert events == {"fire", "resolve"}


def test_two_identical_runs_are_byte_identical():
    first = run_health(seed=7, shards=4, batch=32, threshold=200.0)
    second = run_health(seed=7, shards=4, batch=32, threshold=200.0)
    assert first == second
