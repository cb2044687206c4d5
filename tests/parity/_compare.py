"""Wall-clock-tolerant comparison helpers for cross-backend parity.

The asyncio backend promises the simulator's *logical* behaviour — same
tuples through the same operators at the same virtual instants — but not
the simulator's *sequencing* of same-instant work: inside one virtual
instant, deliveries and operator dispatch run concurrently across tasks.
So these helpers compare

- sink contents as **multisets** (order-free, duplicates still count),
- per-service throughput as **totals** (tuples in/out per service),
- the dead-letter audit as **(source, reason) multisets** (``failed_at``
  is compared too — retry exhaustion instants are logical times and must
  match — but wall stamps never are),

and every run is **timeout-bounded**: the async backend gets a hard wall
budget (:data:`MAX_WALL_SECONDS`) so a deadlocked queue fails the test
instead of hanging the suite.

Floats are canonicalised to 9 decimals before hashing: equal logical
computations must agree to far more than that, while the helper stays
robust to repr-level noise.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping

from repro.dsn.generate import dataflow_to_dsn
from repro.network.topology import Topology
from repro.pubsub.subscription import BatchingPolicy
from repro.runtime.backends import AsyncBackend, SimBackend
from repro.scenario import (
    build_stack,
    osaka_scenario_flow,
    sharded_aggregation_flow,
)

#: Hard wall-clock budget (seconds) for one async scenario run.  The sim
#: runs these horizons in ~2s; a run that needs 60x that is wedged.
MAX_WALL_SECONDS = 120.0

#: Virtual horizons per scenario: long enough for the interesting
#: behaviour (the osaka trigger fires at ~7.9h; the stations windows
#: close every 300s), short enough to keep the 2x8-config matrix fast.
HORIZONS = {"osaka": 9.0 * 3600.0, "stations": 2.0 * 3600.0}


def canon(value):
    """Canonical hashable form of a payload value (floats rounded)."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, Mapping):  # includes tuple payloads' mappingproxy
        return tuple(sorted((k, canon(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(canon(v) for v in value)
    return value


def tuple_key(tuple_):
    """Order-free identity of a sensor tuple (payload + stamp + origin)."""
    return (tuple_.source, tuple_.seq, round(tuple_.stamp.time, 9),
            canon(tuple_.payload))


def sink_multiset(tuples) -> Counter:
    """Multiset of a collector sink's received tuples."""
    return Counter(tuple_key(t) for t in tuples)


def warehouse_multiset(warehouse) -> Counter:
    """Multiset of warehoused facts, minus load-order surrogate keys."""
    return Counter(
        (round(fact.event_time, 9), canon(fact.measures),
         canon(fact.attributes))
        for fact in warehouse.facts)


def sticker_snapshot(sticker):
    """The sticker feed's bins as an order-free comparable mapping.

    Counts and sums are order-independent accumulations, so two runs
    that pushed the same multiset of tuples produce equal snapshots
    regardless of push order.
    """
    bins = {}
    for key, point in sticker._bins.items():
        bins[(point.bucket_start, point.row, point.col, point.theme)] = (
            point.count, canon(point.numeric_sums),
            canon(point.numeric_counts))
    return sticker.pushed, bins


def service_totals(deployment) -> dict:
    """Per-service tuples_in/tuples_out totals."""
    return {name: (process.operator.stats.tuples_in,
                   process.operator.stats.tuples_out)
            for name, process in deployment.processes.items()}


def audit_multiset(deployment) -> Counter:
    """Dead-letter (source, reason, failed_at) records across all sources."""
    records: Counter = Counter()
    for binding in deployment.bindings.values():
        for subscription in binding.subscriptions:
            for letter in subscription.dead_letters:
                records[(letter.tuple.source, letter.reason,
                         round(letter.failed_at, 9))] += 1
    return records


def run_config(backend_name: str, flow_name: str, batch: int, shards: int,
               seed: int = 7, hours: "float | None" = None):
    """Run one scenario configuration on one backend; return a snapshot.

    The async backend runs under :data:`MAX_WALL_SECONDS` so a wedged
    event loop raises instead of hanging; both backends are closed before
    returning (the conftest flake guard would fail the test otherwise).
    """
    topology = Topology.star(leaf_count=4)
    if backend_name == "async":
        backend = AsyncBackend(topology=topology, max_wall=MAX_WALL_SECONDS)
    else:
        backend = SimBackend(topology=topology)
    stack = build_stack(hot=True, seed=seed, backend=backend)
    with stack:
        flow = (osaka_scenario_flow if flow_name == "osaka"
                else sharded_aggregation_flow)(stack)
        deployment = stack.executor.deploy(dataflow_to_dsn(
            flow, batching=BatchingPolicy(batch),
            shards=shards if shards > 1 else None))
        horizon = HORIZONS[flow_name] if hours is None else hours * 3600.0
        stack.run_until(horizon)
        snapshot = {
            "backend": backend.name,
            "warehouse": warehouse_multiset(stack.warehouse),
            "sticker": sticker_snapshot(stack.sticker),
            "services": service_totals(deployment),
            "audit": audit_multiset(deployment),
            "network": {
                "tuples_sent": stack.netsim.stats.tuples_sent,
                "tuples_delivered": stack.netsim.stats.tuples_delivered,
                "messages_dropped": stack.netsim.stats.messages_dropped,
            },
        }
        for name, sink in deployment.collectors.items():
            snapshot[f"sink:{name}"] = sink_multiset(sink.received)
    return snapshot


def assert_parity(sim_snapshot: dict, async_snapshot: dict) -> None:
    """Assert the async run reproduced the simulator's logical output."""
    keys = set(sim_snapshot) | set(async_snapshot)
    keys.discard("backend")
    mismatches = []
    for key in sorted(keys):
        expected = sim_snapshot.get(key)
        actual = async_snapshot.get(key)
        if expected != actual:
            mismatches.append(f"{key}: sim={expected!r} async={actual!r}")
    assert not mismatches, "backend divergence:\n" + "\n".join(mismatches)
