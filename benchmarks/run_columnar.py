"""Columnar-execution before/after benchmark runner (writes ``BENCH_9.json``).

Measures what the columnar tier (PR 9) buys on a fused chain: the same
:class:`~repro.streams.fused.FusedOperator` runs each batch either as a
pipeline of whole-column kernels over a struct-of-arrays
:class:`~repro.streams.columnar.ColumnarBatch` (columnar), or through
the per-tuple member loop (row).  Both variants are one process on one
node — fusion already removed the hops in PR 7 — so the *only* delta
under test is the execution strategy inside the process.

- ``columnar_chain``    — tuples/sec through the 4-op acceptance chain
  (filter -> transform -> validate -> virtual-property), columnar vs
  row, at batch=8 and batch=32.  The row variant is the identical
  ``FusedOperator`` with ``fused.columnar = False`` — the ``--no-columnar``
  escape hatch, exactly.  Acceptance: columnar >= 3x row at batch=32.
- ``filter_transform``  — the 2-op vectorized filter -> transform chain
  the CI smoke job guards at >= 2x (a shorter chain amortizes the
  to/from-columnar conversion over less work, so its floor is lower).
- ``process_receive``   — the exact BENCH_4/5/7/8 batch=1 dispatch
  workload.  Single tuples never enter the columnar tier
  (``MIN_COLUMNAR_ROWS``), so the row path must hold BENCH_8's record.
  Acceptance: within 5%.
- ``probe_batched``     — the batch=32 dispatch workload with the SLO
  plane installed; the probe commits once per batch (satellite 1),
  so the probe overhead must stay <= 20% (BENCH_8 measured the
  per-tuple probe at 60%).

Before any rate is believed, the per-member ``OperatorStats`` of the
two variants are asserted identical — the same collapse guard BENCH_7
uses, and the bench-side echo of the Hypothesis parity suite.

Usage::

    python -m benchmarks.run_columnar --json              # full run
    python -m benchmarks.run_columnar --json --quick      # CI-scale run
    python -m benchmarks.run_columnar --json --smoke      # crash check
    python -m benchmarks.run_columnar --json --enforce    # fail on regression
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from benchmarks._batches import line_sim
from benchmarks._batches import make_tuple as _make_tuple
from benchmarks._timing import gc_controlled as _gc_controlled
from benchmarks.run_fusion import _chain_members
from benchmarks.run_latency import bench_probe_batched

from repro.runtime.process import OperatorProcess
from repro.streams.filter import FilterOperator
from repro.streams.fused import FusedOperator
from repro.streams.transform import TransformOperator
from repro.streams.tuple import TupleBatch

#: Batch sizes the chain is measured at (both above ``MIN_COLUMNAR_ROWS``).
BATCH_SIZES = (8, 32)

#: columnar speedup acceptance floor vs the row path, 4-op chain, batch=32.
SPEEDUP_FLOOR = 3.0

#: CI smoke floor for the 2-op filter -> transform chain at batch=32.
SMOKE_FLOOR = 2.0

#: ``process_receive`` may regress at most this much against BENCH_8.
REGRESSION_BOUND_PCT = 5.0

#: installed-probe overhead ceiling on the batched path (satellite 1).
PROBE_OVERHEAD_BOUND_PCT = 20.0


def _short_chain() -> "list":
    """The CI smoke chain: vectorized filter -> transform."""
    return [
        FilterOperator("temperature > -100", name="keep"),
        TransformOperator(
            assignments={"fahrenheit": "temperature * 1.8 + 32"},
            name="to-f",
        ),
    ]


def _deploy(members, columnar: bool):
    """One fused process hosting ``members`` on a 1-node sim.

    The row variant is produced by flipping ``fused.columnar`` — the
    same switch the executor's ``columnar=`` knob and the CLI's
    ``--no-columnar`` flag flip, so the benchmark prices exactly what
    the escape hatch costs.
    """
    sim = line_sim(1)
    fused = FusedOperator(members)
    fused.columnar = columnar
    process = OperatorProcess(
        process_id="bench:" + "+".join(m.name for m in members),
        operator=fused, node_id="n0", netsim=sim,
    )
    process.start()
    return sim, process


def _chain_cost(make_members, columnar: bool, iterations: int, batch: int):
    """One timed pass: feed + drain.

    Returns ``(seconds, per-member stats snapshots)``.
    """
    members = make_members()
    sim, process = _deploy(members, columnar)
    tuples = [_make_tuple(i) for i in range(iterations)]
    with _gc_controlled():
        start = time.perf_counter()
        receive = process.receive
        for at in range(0, iterations, batch):
            receive(TupleBatch.of(tuples[at:at + batch]))
        sim.clock.run()
        cost = time.perf_counter() - start
    if members[-1].stats.tuples_out != iterations:
        raise AssertionError(
            f"chain lost tuples (columnar={columnar}): "
            f"{members[-1].stats.tuples_out} of {iterations} emerged"
        )
    return cost, [member.stats.snapshot() for member in members]


def bench_columnar_chain(make_members, iterations: int,
                         repeat: int = 7) -> dict:
    """Chain throughput, columnar vs row, per batch size.

    Passes are *interleaved* (row, columnar, row, columnar, ...) so a
    drifting machine cannot systematically favour whichever variant
    happened to run in the quieter block; best-of-N per variant then
    discards the noisy passes on both sides symmetrically.
    """
    out: dict = {"chain": [m.name for m in make_members()]}
    for batch in BATCH_SIZES:
        costs = {"row": float("inf"), "columnar": float("inf")}
        stats: dict = {}
        for _ in range(repeat):
            for columnar in (False, True):
                key = "columnar" if columnar else "row"
                cost, member_stats = _chain_cost(
                    make_members, columnar, iterations, batch
                )
                costs[key] = min(costs[key], cost)
                stats[key] = member_stats
        # A collapse guard before any rate is believed: every member
        # must have done identical work in both variants.
        if stats["columnar"] != stats["row"]:
            raise AssertionError(
                f"member-stats parity broken at batch={batch}: {stats}"
            )
        out[f"row_batch{batch}"] = round(iterations / costs["row"])
        out[f"columnar_batch{batch}"] = round(iterations / costs["columnar"])
        out[f"speedup_batch{batch}"] = round(
            costs["row"] / costs["columnar"], 2
        )
    return out


def bench_process_receive(iterations: int, repeat: int = 8) -> dict:
    """The exact BENCH_4/5/7/8 batch=1 dispatch workload.

    Single tuples ride the row path unconditionally (the columnar tier
    gates on ``MIN_COLUMNAR_ROWS``), so this prices what the tier costs
    when it cannot help: nothing.  Compared against the *recorded*
    BENCH_8 rate; best-of-8 to shrug off transient machine noise.
    """

    def feed(n):
        process = OperatorProcess(
            process_id="bench:filter",
            operator=FilterOperator("temperature > 24"),
            node_id="n0",
            netsim=line_sim(),
        )
        process.start()
        tuple_ = _make_tuple(0)
        receive = process.receive
        for _ in range(n):
            receive(tuple_)

    best = float("inf")
    for _ in range(repeat):
        with _gc_controlled():
            start = time.perf_counter()
            feed(iterations)
            best = min(best, time.perf_counter() - start)
    return {"tuples_per_sec": round(iterations / best)}


# -- runner -----------------------------------------------------------------


def _vs_bench8(rates: dict, bench8: "dict | None") -> dict:
    """Regression of the per-tuple dispatch rate vs BENCH_8's record."""
    if not bench8:
        return {}
    recorded = bench8.get("results", {}).get("process_receive", {}).get(
        "tuples_per_sec"
    )
    measured = rates.get("tuples_per_sec")
    if not recorded or not measured:
        return {}
    return {
        "bench8_tuples_per_sec": recorded,
        "vs_bench8_pct": round((recorded - measured) / recorded * 100.0, 1),
    }


def run(scale: int = 1, bench8: "dict | None" = None) -> dict:
    chain_iters = 60_000 // scale
    receive_iters = 100_000 // scale
    probe_iters = 60_000 // scale

    chain4 = bench_columnar_chain(_chain_members, chain_iters)
    chain2 = bench_columnar_chain(_short_chain, chain_iters)
    receive = bench_process_receive(receive_iters)
    receive.update(_vs_bench8(receive, bench8))
    probed = bench_probe_batched(probe_iters)

    return {
        "bench": "columnar-batch-execution",
        "issue": 9,
        "scale_divisor": scale,
        "unit": "tuples/sec through the fused chain (feed + drain)",
        "batch_sizes": list(BATCH_SIZES),
        "notes": {
            "columnar_chain": "filter -> transform -> validate -> "
                              "virtual-property as ONE FusedOperator on "
                              "one node; columnar runs it as whole-column "
                              "kernels over a struct-of-arrays batch with "
                              "selection-vector filtering, row is the "
                              "identical operator with fused.columnar = "
                              "False (the --no-columnar path); per-member "
                              "OperatorStats asserted identical across "
                              "variants before rates are reported; passes "
                              "interleaved row/columnar against drift",
            "filter_transform": "the 2-op vectorized chain the CI "
                                "columnar-smoke job guards at >= "
                                f"{SMOKE_FLOOR}x",
            "process_receive": "exact BENCH_4/5/7/8 batch=1 dispatch "
                               "workload — single tuples never enter the "
                               "columnar tier (MIN_COLUMNAR_ROWS), so the "
                               "row path must hold BENCH_8's record",
            "probe_batched": "batch=32 dispatch with the SLO plane "
                             "installed; the probe commits once per "
                             "batch (one running-max update + one "
                             "worst-latency observe) so the overhead must "
                             f"stay <= {PROBE_OVERHEAD_BOUND_PCT}% "
                             "(BENCH_8's per-tuple probe: 60%)",
            "acceptance": f"columnar >= {SPEEDUP_FLOOR}x row on the 4-op "
                          "chain at batch=32; process_receive within "
                          f"{REGRESSION_BOUND_PCT}% of BENCH_8; "
                          "probe_overhead_pct <= "
                          f"{PROBE_OVERHEAD_BOUND_PCT}",
        },
        "results": {
            "columnar_chain": chain4,
            "filter_transform": chain2,
            "process_receive": receive,
            "probe_batched": probed,
        },
    }


def check(report: dict) -> "list[str]":
    """Acceptance violations in a **full-scale** report."""
    problems = []
    results = report["results"]
    speedup = results.get("columnar_chain", {}).get("speedup_batch32")
    if speedup is not None and speedup < SPEEDUP_FLOOR:
        problems.append(
            f"columnar_chain: columnar speedup {speedup}x at batch=32 is "
            f"below the {SPEEDUP_FLOOR}x floor"
        )
    regression = results.get("process_receive", {}).get("vs_bench8_pct")
    if regression is not None and regression > REGRESSION_BOUND_PCT:
        problems.append(
            f"process_receive: regressed {regression}% vs BENCH_8 "
            f"(bound {REGRESSION_BOUND_PCT}%)"
        )
    overhead = results.get("probe_batched", {}).get("probe_overhead_pct")
    if overhead is not None and overhead > PROBE_OVERHEAD_BOUND_PCT:
        problems.append(
            f"probe_batched: installed-probe overhead {overhead}% exceeds "
            f"the {PROBE_OVERHEAD_BOUND_PCT}% bound"
        )
    return problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true",
                        help="write BENCH_9.json next to the repo root")
    parser.add_argument("--quick", action="store_true",
                        help="reduced iteration counts (CI-scale; speedup "
                             "ratios remain comparable)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny iteration counts (crash check only)")
    parser.add_argument("--enforce", action="store_true",
                        help="exit 1 when acceptance bounds are violated "
                             "(meaningful only at full scale)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default: <repo>/BENCH_9.json)")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    bench8 = None
    bench8_path = root / "BENCH_8.json"
    if bench8_path.exists():
        bench8 = json.loads(bench8_path.read_text())

    scale = 40 if args.smoke else 8 if args.quick else 1
    report = run(scale=scale, bench8=bench8)
    text = json.dumps(report, indent=2)
    print(text)
    if args.json:
        out = args.out or root / "BENCH_9.json"
        out.write_text(text + "\n")
        print(f"\nwrote {out}")
    if args.enforce and scale == 1:
        problems = check(report)
        if problems:
            for problem in problems:
                print(f"FAIL: {problem}", file=sys.stderr)
            sys.exit(1)
        print("acceptance bounds hold")


if __name__ == "__main__":
    main()
