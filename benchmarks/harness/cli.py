"""Command line of the harness (see README.md for the full story).

The driver's contract::

    python3 benchmarks/harness --workload NAME --seed N --seconds S --trace 0|1

prints human-readable tables on stderr and, as the last line of stdout,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from . import compare, runner, workloads

ROOT = Path(__file__).resolve().parents[2]

#: Runs of each workload and mode in a ``--report`` result set: enough
#: for ``--compare`` to estimate the run-to-run spread (it needs 4).
REPORT_RUNS = 5


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
    }


def _say(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def _print_result(result: runner.RunResult) -> None:
    _say(f"\n== {result.workload}: attempted {result.attempted} tuples, "
         f"failed {result.failed} ==")
    layers = result.detail.get("layers_ns_per_tuple")
    if layers:
        total = sum(layers.values())
        _say(f"{'layer':24s} {'self ns/tuple':>14s} {'share':>7s}")
        for layer, ns in layers.items():
            _say(f"{layer:24s} {ns:14.1f} {ns / total:7.1%}")
        _say(f"{'(sum; root wall '}{result.detail['root_ms']:.1f} ms)"
             f"{'':3s} {total:10.1f}")
    for rate, stats in result.detail.get("open_loop", {}).items():
        _say(f"open loop {rate}/s: n={stats['samples']:.0f} "
             f"p50={stats['p50_ms']:.3f} ms p95={stats['p95_ms']:.3f} ms "
             f"generator late at end={stats['gen_late_end_ms']:.3f} ms")
    passes = result.detail.get("passes")
    if passes:
        _say("passes (wall s / CPU s): " + "  ".join(
            f"{p['wall_s']:.3f}/{p['cpu_s']:.3f}" for p in passes))
    for name, metric in result.metrics.items():
        if metric["value"]:
            _say(f"  {name:44s} {metric['value']:16.4f} {metric['unit']}")


def run_one(args) -> int:
    result = runner.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace))
    _say(json.dumps(environment(args.seed)))
    _print_result(result)
    if args.spans and "table" in result.detail:
        result.detail["table"].save(args.spans)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
    }))
    return 0 if result.correct else 1


def smoke(args) -> int:
    """Every workload in both modes at tiny sizes, oracle checks on."""
    failed = 0
    started = time.perf_counter()
    for name in workloads.WHY:
        for trace in (False, True):
            result = runner.run_workload(
                name, args.seed, args.seconds, trace, smoke=True)
            failed += result.failed
            _say(f"{name:20s} trace={int(trace)} attempted="
                 f"{result.attempted} failed={result.failed}")
    _say(f"smoke: {time.perf_counter() - started:.1f} s, failed={failed}")
    return 0 if failed == 0 else 1


def report(args) -> int:
    """A full result set: every workload, ``REPORT_RUNS`` runs of each mode.

    Each run is its own process, exactly as the driver makes it, so that
    ``peak_rss_mb`` and warm-up are per run and not per result set.
    """
    out = {"schema": 1, "env": environment(args.seed), "workloads": {}}
    failed = 0
    for name in workloads.WHY:
        entry = {"end_to_end": {}, "per_layer": {}, "attempted": 0,
                 "failed": 0}
        for trace in (0, 1):
            for _ in range(REPORT_RUNS):
                done = subprocess.run(
                    [sys.executable, str(Path(__file__).with_name(
                        "__main__.py")),
                     "--workload", name, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(trace)],
                    stdout=subprocess.PIPE, text=True, check=False)
                if not done.stdout.strip():
                    _say(f"{name} --trace {trace}: no result "
                         f"(exit {done.returncode})")
                    return 1
                result = json.loads(done.stdout.strip().splitlines()[-1])
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                for metric, cell in result["metrics"].items():
                    section = entry[
                        "end_to_end" if compare.is_end_to_end(
                            name, metric, bool(trace)) else "per_layer"]
                    section.setdefault(
                        metric, {"unit": cell["unit"], "values": []}
                    )["values"].append(cell["value"])
        failed += entry["failed"]
        out["workloads"][name] = entry
    Path(args.report).write_text(json.dumps(out, indent=1))
    _say(f"wrote {args.report}")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.harness", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(workloads.WHY))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=workloads.REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", metavar="FILE.npz",
                        help="with --trace 1: write the raw spans here")
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads, both modes, tiny sizes")
    parser.add_argument("--report", metavar="OUT.json",
                        help="write a full result set (for --compare)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return 1 if compare.compare(*args.compare) else 0
    if args.smoke:
        return smoke(args)
    if args.report:
        return report(args)
    if not args.workload:
        parser.error("one of --workload, --smoke, --report, --compare")
    return run_one(args)
