"""Latency-plane overhead benchmark runner (writes ``BENCH_8.json``).

PR 8 adds the SLO plane — stage-latency histograms, watermarks,
backpressure gauges, and the alert engine — under the same zero-cost
contract PR 3 established: **an absent plane must cost nothing on the
hot path**.  This runner measures that contract from three angles:

- ``process_receive`` — the exact BENCH_4/5/7 per-tuple dispatch
  workload, no observability attached.  The plane hook here is one
  cached ``self._probe is None`` check *inside* the existing
  ``obs is not None`` branch, so a bare process never even reaches it.
  Compared against BENCH_7's recorded rate.  Acceptance: within 5%.
- ``probe_paths`` — the same dispatch workload with an observability
  bundle attached (sampling 0.0), measured twice: plane absent (the
  ``_probe is None`` fast path) and plane installed with a live probe
  (histogram observe + watermark max per tuple).  The absent-plane rate
  shows what every observed-but-not-SLO'd deployment pays — a single
  attribute load and ``is None`` test; the installed rate prices the
  probe itself.
- ``alert_tick`` — one :meth:`AlertEngine.tick` evaluating a rule set
  over a populated registry, amortised; alerting is cadence-driven
  (never per tuple), so this only needs to be far cheaper than the
  virtual-time interval it runs at.

Usage::

    python -m benchmarks.run_latency --json              # full run
    python -m benchmarks.run_latency --json --quick      # CI-scale run
    python -m benchmarks.run_latency --json --smoke      # crash check
    python -m benchmarks.run_latency --json --enforce    # fail on regression
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

from repro.network.netsim import NetworkSimulator
from repro.obs import Observability
from repro.obs.alerts import AlertEngine, AlertRule
from repro.runtime.process import OperatorProcess
from repro.streams.filter import FilterOperator

#: ``process_receive`` may regress at most this much against BENCH_7.
REGRESSION_BOUND_PCT = 5.0

def _line_sim() -> NetworkSimulator:
    return line_sim()


def _filter_process(obs: "Observability | None") -> OperatorProcess:
    process = OperatorProcess(
        process_id="bench:filter",
        operator=FilterOperator("temperature > 24"),
        node_id="n0",
        netsim=_line_sim(),
        obs=obs,
    )
    process.start()
    return process


def bench_process_receive(iterations: int, repeat: int = 8) -> dict:
    """The exact BENCH_4/5/7 batch=1 dispatch workload, bare process."""

    def feed(n: int) -> None:
        process = _filter_process(obs=None)
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


def bench_probe_paths(iterations: int, repeat: int = 8) -> dict:
    """Dispatch with observability attached: plane absent vs installed.

    Passes are interleaved so machine drift cannot systematically favour
    one variant; best-of-N per variant is reported.
    """

    def feed(n: int, install_probe: bool) -> None:
        obs = Observability(sampling=0.0)
        process = _filter_process(obs)
        if install_probe:
            plane = obs.ensure_latency()
            process._probe = plane.register_process(
                process.process_id, blocking=False, sink=False
            )
        tuple_ = _make_tuple(0)
        receive = process.receive
        for _ in range(n):
            receive(tuple_)

    best = {"no_plane": float("inf"), "with_probe": float("inf")}
    for _ in range(repeat):
        for key, install in (("no_plane", False), ("with_probe", True)):
            with _gc_controlled():
                start = time.perf_counter()
                feed(iterations, install)
                best[key] = min(best[key], time.perf_counter() - start)
    no_plane = round(iterations / best["no_plane"])
    with_probe = round(iterations / best["with_probe"])
    return {
        "obs_no_plane_tuples_per_sec": no_plane,
        "obs_with_probe_tuples_per_sec": with_probe,
        "probe_overhead_pct": round(
            (no_plane - with_probe) / no_plane * 100.0, 1
        ),
    }


def bench_probe_batched(iterations: int, batch_size: int = 32,
                        repeat: int = 8) -> dict:
    """Batched dispatch with the plane installed vs absent (ISSUE 9).

    ``ProcessProbe.note`` commits once per message — one running-max
    update and one worst-latency histogram observe — instead of once per
    tuple, so the probe's overhead on the batched path must amortize to
    near zero (the per-tuple path above stays the worst case).
    """
    from repro.streams.tuple import TupleBatch

    def feed(batches: int, install_probe: bool) -> None:
        obs = Observability(sampling=0.0)
        process = _filter_process(obs)
        if install_probe:
            plane = obs.ensure_latency()
            process._probe = plane.register_process(
                process.process_id, blocking=False, sink=False
            )
        batch = TupleBatch.of(
            [_make_tuple(i) for i in range(batch_size)]
        )
        receive = process.receive
        for _ in range(batches):
            receive(batch)

    batches = max(1, iterations // batch_size)
    best = {"no_plane": float("inf"), "with_probe": float("inf")}
    for _ in range(repeat):
        for key, install in (("no_plane", False), ("with_probe", True)):
            with _gc_controlled():
                start = time.perf_counter()
                feed(batches, install)
                best[key] = min(best[key], time.perf_counter() - start)
    tuples = batches * batch_size
    no_plane = round(tuples / best["no_plane"])
    with_probe = round(tuples / best["with_probe"])
    return {
        "batch_size": batch_size,
        "obs_no_plane_tuples_per_sec": no_plane,
        "obs_with_probe_tuples_per_sec": with_probe,
        "probe_overhead_pct": round(
            (no_plane - with_probe) / no_plane * 100.0, 1
        ),
    }


def bench_alert_tick(iterations: int, repeat: int = 6) -> dict:
    """Amortised cost of one engine tick over a populated plane."""
    sim = _line_sim()
    obs = Observability(sampling=0.0)
    plane = obs.ensure_latency()
    keys = [f"svc{i}" for i in range(8)]
    for index, key in enumerate(keys):
        probe = plane.register_process(key, blocking=index % 2 == 0,
                                       sink=index == len(keys) - 1)
        for j in range(200):
            probe.note(float(j) + 1.0, float(j))
        if probe.blocking:
            probe.commit_flush(300.0, [])
    for upstream, downstream in zip(keys, keys[1:]):
        plane.set_upstreams(downstream, [upstream])
    plane.source_high = 400.0
    engine = AlertEngine(obs.metrics, plane=plane, cadence=60.0)
    engine._now = lambda: sim.clock.now  # manual ticks, no scheduling
    for i, metric in enumerate(
        ("p99_latency", "p50_latency", "watermark_lag", "saturation")
    ):
        engine.add_rule(AlertRule(
            name=f"rule{i}", metric=metric, op="<", threshold=1e9,
            window=60.0 if metric.endswith("latency") else 0.0,
        ))
    best = float("inf")
    for _ in range(repeat):
        with _gc_controlled():
            start = time.perf_counter()
            for _ in range(iterations):
                engine.tick()
            best = min(best, time.perf_counter() - start)
    return {
        "rules": len(engine.rules),
        "processes": len(keys),
        "ticks_per_sec": round(iterations / best),
    }


# -- runner -----------------------------------------------------------------


def _vs_bench7(rates: dict, bench7: "dict | None") -> dict:
    """Regression of the per-tuple dispatch rate vs BENCH_7's record."""
    if not bench7:
        return {}
    recorded = bench7.get("results", {}).get("process_receive", {}).get(
        "tuples_per_sec"
    )
    measured = rates.get("tuples_per_sec")
    if not recorded or not measured:
        return {}
    return {
        "bench7_tuples_per_sec": recorded,
        "vs_bench7_pct": round((recorded - measured) / recorded * 100.0, 1),
    }


def run(scale: int = 1, bench7: "dict | None" = None) -> dict:
    receive_iters = 100_000 // scale
    probe_iters = 60_000 // scale
    tick_iters = max(20, 2_000 // scale)

    receive = bench_process_receive(receive_iters)
    receive.update(_vs_bench7(receive, bench7))
    probes = bench_probe_paths(probe_iters)
    batched = bench_probe_batched(probe_iters)
    ticks = bench_alert_tick(tick_iters)

    return {
        "bench": "latency-slo-plane",
        "issue": 8,
        "scale_divisor": scale,
        "unit": "tuples/sec through OperatorProcess.receive",
        "notes": {
            "process_receive": "exact BENCH_4/5/7 batch=1 dispatch "
                               "workload, no observability — the SLO "
                               "plane's hook is unreachable here, so the "
                               "rate must hold the BENCH_7 record",
            "probe_paths": "observability attached (sampling 0): plane "
                           "absent exercises the cached '_probe is None' "
                           "fast path; plane installed prices the live "
                           "probe (histogram observe + watermark max per "
                           "tuple); passes interleaved against drift",
            "probe_batched": "the batch=32 dispatch workload with the "
                             "plane installed: the probe commits once "
                             "per batch (one running-max update + one "
                             "worst-latency observe), so the overhead "
                             "must amortize to near zero (ISSUE 9 "
                             "regression row)",
            "alert_tick": "one AlertEngine.tick over 8 processes / 4 "
                          "rules on a populated registry; cadence-driven, "
                          "never per tuple",
            "acceptance": "process_receive within "
                          f"{REGRESSION_BOUND_PCT}% of BENCH_7",
        },
        "results": {
            "process_receive": receive,
            "probe_paths": probes,
            "probe_batched": batched,
            "alert_tick": ticks,
        },
    }


def check(report: dict) -> "list[str]":
    """Acceptance violations in a **full-scale** report."""
    problems = []
    regression = report["results"].get("process_receive", {}).get(
        "vs_bench7_pct"
    )
    if regression is not None and regression > REGRESSION_BOUND_PCT:
        problems.append(
            f"process_receive: regressed {regression}% vs BENCH_7 "
            f"(bound {REGRESSION_BOUND_PCT}%)"
        )
    return problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true",
                        help="write BENCH_8.json next to the repo root")
    parser.add_argument("--quick", action="store_true",
                        help="reduced iteration counts (CI-scale)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny iteration counts (crash check only)")
    parser.add_argument("--enforce", action="store_true",
                        help="exit 1 when acceptance bounds are violated "
                             "(meaningful only at full scale)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default: <repo>/BENCH_8.json)")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    bench7 = None
    bench7_path = root / "BENCH_7.json"
    if bench7_path.exists():
        bench7 = json.loads(bench7_path.read_text())

    scale = 40 if args.smoke else 8 if args.quick else 1
    report = run(scale=scale, bench7=bench7)
    text = json.dumps(report, indent=2)
    print(text)
    if args.json:
        out = args.out or root / "BENCH_8.json"
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
