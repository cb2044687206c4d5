"""The simulator-oracle parity suite.

Every configuration of {scenario} x {batch} x {shards} runs once on the
deterministic simulator and once on the asyncio backend, each deployed
with the plan every deployment takes (the fusion planner's), and
the two runs must agree on everything logical: sink payload multisets,
per-service throughput totals, the dead-letter audit, and the network's
tuple accounting.  Order within a virtual instant is explicitly NOT
compared (that is the asynchronous part); see ``_compare`` for the
tolerance model.

The osaka scenario exercises the trigger-gated acquisition path (the
trigger fires at ~7.9h, so the 9h horizon covers the pause/resume
control round-trip); the stations scenario exercises windowed
aggregation, and — at ``shards=4`` — the shard/merge epoch protocol.
"""

from __future__ import annotations

import pytest

from tests.parity._compare import assert_parity, run_config

#: ``-fused`` in each id names the plan deployed: the planner's chains.
CONFIGS = [
    pytest.param(flow, batch, shards,
                 id=f"{flow}-batch{batch}-shards{shards}-fused")
    for flow in ("osaka", "stations")
    for batch in (1, 32)
    for shards in (1, 4)
]


@pytest.mark.parametrize("flow,batch,shards", CONFIGS)
def test_async_matches_sim(flow, batch, shards):
    sim = run_config("sim", flow, batch, shards)
    asy = run_config("async", flow, batch, shards)
    assert_parity(sim, asy)


def test_parity_runs_produce_output():
    """Guard against vacuous parity: the compared runs carry real data.

    If a future change silenced the scenarios (trigger never fires,
    windows never close), the matrix above would pass trivially; this
    pins that both scenarios actually deliver tuples to their sinks at
    the parity horizons.
    """
    osaka = run_config("sim", "osaka", 1, 1)
    assert sum(osaka["warehouse"].values()) > 0
    assert osaka["sticker"][0] > 0
    assert sum(osaka["sink:traffic-collector"].values()) > 0
    stations = run_config("sim", "stations", 1, 4)
    assert sum(stations["sink:averages"].values()) > 0


class TestSeedPlumbing:
    """``--seed`` must reach the sensor generators identically on both
    backends — same seed, same streams; different seed, different streams."""

    def test_same_seed_same_streams_across_backends(self):
        sim = run_config("sim", "stations", 1, 1, seed=42, hours=1.0)
        asy = run_config("async", "stations", 1, 1, seed=42, hours=1.0)
        assert_parity(sim, asy)

    def test_different_seed_different_streams(self):
        a = run_config("sim", "stations", 1, 1, seed=7, hours=1.0)
        b = run_config("sim", "stations", 1, 1, seed=42, hours=1.0)
        assert a["sink:averages"] != b["sink:averages"]

    def test_async_seed_change_tracks_sim(self):
        sim = run_config("sim", "osaka", 1, 1, seed=3, hours=1.0)
        asy = run_config("async", "osaka", 1, 1, seed=3, hours=1.0)
        assert_parity(sim, asy)
