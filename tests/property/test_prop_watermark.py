"""Property: watermarks never regress (DESIGN.md §12).

The full stack (sensors -> broker -> sharded aggregation -> merge ->
sink) is sampled at a random cadence for any mix of operator kinds,
shard counts and batch sizes, and each reading is >= the previous one.
A probe-level property drives the commit rules with out-of-order stamps.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsn.ast import DsnSlo
from repro.dsn.generate import dataflow_to_dsn
from repro.obs.latency import LatencyPlane
from repro.obs.metrics import MetricsRegistry
from repro.pubsub.subscription import BatchingPolicy
from repro.scenario import build_stack, sharded_aggregation_flow


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    shards=st.sampled_from((1, 2, 4)),
    batch=st.sampled_from((1, 32)),
    cadence=st.sampled_from((60.0, 150.0, 300.0)),
)
def test_watermarks_never_regress(seed, shards, batch, cadence):
    stack = build_stack(seed=seed, latency=True)
    flow = sharded_aggregation_flow(stack)
    # The plane is installed the way the executor does it: by asking for
    # one health objective.
    stack.executor.deploy(dataflow_to_dsn(
        flow, batching=BatchingPolicy(batch),
        shards=shards if shards > 1 else None,
        slos=[DsnSlo(flow.name, "watermark_lag", "<", 1e9)]))
    plane = stack.obs.latency

    last: dict[str, float] = {}
    violations: list[str] = []

    def check() -> None:
        memo: dict = {}
        for key in plane.probes:
            mark = plane.watermark(key, memo)
            if mark is None:
                # A cold process has no watermark yet; once warm it may
                # never go cold again (committed only grows).
                if key in last:
                    violations.append(f"{key}: went cold after {last[key]}")
                continue
            if key in last and mark < last[key]:
                violations.append(f"{key}: regressed {last[key]} -> {mark}")
            last[key] = mark
        high = plane.source_high
        check.highs.append(high)

    check.highs = []
    stack.clock.schedule_periodic(cadence, check, start_delay=cadence * 0.7)
    stack.run_until(2 * 3600.0)
    assert not violations
    # source_high is monotone too (max over published stamps).
    highs = check.highs
    assert all(a <= b for a, b in zip(highs, highs[1:]))
    assert last  # the run actually produced warm watermarks


@settings(max_examples=50, deadline=None)
@given(
    stamps=st.lists(
        st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=50,
    ),
    blocking=st.booleans(),
)
def test_probe_commit_is_monotone_for_any_stamp_order(stamps, blocking):
    plane = LatencyPlane(MetricsRegistry())
    probe = plane.register_process("p", blocking=blocking, sink=False)
    now = max(stamps) + 1.0
    committed = []
    for i, stamp in enumerate(stamps):
        probe.note(now + i, stamp)
        if blocking and i % 7 == 6:
            probe.commit_flush(now + i, [])
        committed.append(probe.committed)
    assert all(a <= b for a, b in zip(committed, committed[1:]))
    if not blocking:
        assert probe.committed == max(stamps)
