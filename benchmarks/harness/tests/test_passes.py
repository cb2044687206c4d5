"""Passes against the real stack: the oracle agrees, counts repeat, and
batch size and backend do not change what the sinks hold."""

from dataclasses import replace

import pytest

from benchmarks.harness import oracle, runner, workloads


def _pass(inputs, **kwargs):
    return runner.run_pass(inputs, oracle.expected(inputs), **kwargs)


@pytest.fixture(scope="module")
def osaka_b1():
    return _pass(workloads.osaka_sim("t", 11, 2, 1))


def test_oracle_agrees_and_the_gate_opens_once(osaka_b1):
    inputs = workloads.osaka_sim("t", 11, 2, 1)
    want = oracle.expected(inputs)
    assert osaka_b1.failed == 0
    assert want.gate_at == 64.0
    assert osaka_b1.counters["activations"] == 1
    assert 0 < want.suppressed == osaka_b1.counters["tuples_suppressed"]
    assert osaka_b1.counters["warehouse_rows"] == sum(
        want.warehouse.values()) > 0
    assert osaka_b1.counters["sticker_pushed"] == want.pushed > 0


def test_same_seed_same_digests_and_counts(osaka_b1):
    again = _pass(workloads.osaka_sim("t", 11, 2, 1))
    assert again.digests == osaka_b1.digests
    runner._assert_repeat([osaka_b1, again])
    other = _pass(workloads.osaka_sim("t", 12, 2, 1))
    assert other.digests != osaka_b1.digests


def test_batch_32_holds_what_batch_1_holds(osaka_b1):
    b32 = _pass(workloads.osaka_sim("t", 11, 2, 32))
    assert b32.failed == 0
    assert b32.digests == osaka_b1.digests
    assert b32.counters["publish_calls"] * 32 == osaka_b1.counters[
        "publish_calls"]


def test_asyncio_holds_what_the_simulator_holds():
    inputs = workloads.osaka_freerun("t", 5, 1500, backend="sim")
    on_sim = _pass(inputs)
    on_async = _pass(replace(inputs, backend="async"))
    assert on_sim.failed == on_async.failed == 0
    assert on_async.digests == on_sim.digests


def test_keyed_state_join_and_sharded_average():
    inputs = workloads.keyed_sim("t", 4, 3, 32)
    result = _pass(inputs)
    assert result.failed == 0
    # One humidity reading per station per window: one pair per left tuple.
    assert result.counters["pairs_out"] == inputs.tuples // 2
    assert result.counters["shard_skew"] >= 1.0


def test_failures_are_counted_against_the_oracle():
    inputs = workloads.osaka_sim("t", 11, 2, 32)
    want = oracle.expected(inputs)
    row = next(iter(want.warehouse))
    del want.warehouse[row]                       # the sink holds an extra
    want.warehouse[(row[0], row[1], row[2] + 1)] += 1   # and lacks this one
    result = runner.run_pass(inputs, want)
    assert result.failed == 2


def test_traced_pass_closes_and_names_the_layers():
    inputs = workloads.osaka_sim("t", 11, 2, 1)
    traced = runner.traced_pass(inputs, oracle.expected(inputs))
    assert traced.failed == 0
    table = traced.table
    assert table.closure_pct(traced.wall_s * 1e9) < runner.CLOSURE_LIMIT_PCT
    layers = table.by_layer()
    for layer in ("pubsub.broker", "network.netsim", "network.simclock",
                  "runtime.process", "streams.fused", "streams.aggregate",
                  "streams.trigger", "warehouse", "sticker",
                  "harness.replay"):
        assert layers[layer][1] > 0, layer
    # The wrappers are gone again: an untraced pass records nothing new.
    spans = len(table.kinds)
    _pass(inputs)
    assert len(table.kinds) == spans


def test_open_loop_pass_times_every_expected_tuple():
    inputs = workloads.osaka_openloop("t", 3, 0.05, 0.15)
    result = _pass(inputs, time_sinks=True)
    assert result.failed == 0
    assert [s["rate"] for s in result.segments] == list(workloads.RATES)
    for stats in result.segments:
        assert stats["samples"] > 0
        assert 0 < stats["p50_ms"] <= stats["p95_ms"] <= stats["p99_ms"]
        assert 0 < stats["busy_share"] <= 1.5
