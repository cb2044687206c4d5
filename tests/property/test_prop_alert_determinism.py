"""Property-based tests: the alert history is a deployment invariant.

ISSUE 8's acceptance bar: for the same seed, the sequence of alert
fire/resolve transitions — and the entire ``repro health --json``
payload — must be byte-identical across shard counts {1, 4} and sensor
batch sizes {1, 32}.  Sharding moves *where* aggregation state lives and
batching moves *when* tuples travel, but neither may move what the
operator observes at epoch boundaries; since the alert engine ticks at
fixed virtual instants offset from those boundaries and reads only
logical (shard-grouped) state, its history must not change either.
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
        stack.broker_network.registry,
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
