"""The simulator-oracle parity suite (DESIGN.md §8).

Every {scenario} x {batch} x {shards} configuration runs on both
backends with the plan every deployment takes, and the runs agree on
sink multisets, per-service totals, the dead-letter audit and network
tuple counts; order inside a virtual instant is not compared
(``_compare`` holds the tolerance model).  The Osaka scenario's 9 h
horizon covers the trigger's pause/resume round trip (it fires at
~7.9 h); the stations scenario covers windowed aggregation and, at
``shards=4``, the shard/merge epoch protocol.
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
    """Guard against vacuous parity: both scenarios deliver tuples to
    their sinks at the parity horizons (the trigger fires, windows
    close)."""
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
