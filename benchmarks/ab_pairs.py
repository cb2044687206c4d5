"""Alternating A/B pairs of the repository benchmark over two checkouts.

    python benchmarks/ab_pairs.py PARENT CHANGE --pairs 10 --seconds 20 \\
        --seed 61 --workload osaka-replay-b32 --workload keyed-state-b32

Runs the command ``BENCHMARK.json`` declares (read from ``CHANGE``) in
each checkout, with that checkout as the working directory, so each side
measures its own sources with its own copy of the harness.  Pair ``i``
uses seed ``--seed + i`` on both sides, and which side runs first
alternates from pair to pair: the shared box drifts between a quiet and a
slow phase every 20-60 s, and only interleaved runs see the same phases.

Every run is printed as it finishes (stderr); the summary (stdout) gives,
per workload and end-to-end metric, both medians, both quartile pairs,
the pairs B won out of the pairs run (a tie is a win for neither side),
the operations that failed on either side, and a no-regression verdict
against the metric's ``bound`` in ``BENCHMARK.json`` (a fraction of A's
median):

- ``ok``: every B run beats every A run, or B's median is no worse than
  A's by more than the bound;
- ``unresolved``: A's interquartile range is wider than the bound, so the
  runs cannot tell a regression of that size from noise;
- ``worse``: B's median is worse than A's by more than the bound.

Whether the runs amount to a gain is the reader's call: B wins at least
nine tenths of the pairs *and* the medians differ by more than A's
interquartile range.

Imports nothing from ``repro`` or the harness: it only starts processes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, command: "list[str]", workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run in ``checkout``; its last stdout line, parsed."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(
            f"{checkout}: {workload} seed {seed} printed no result "
            f"(exit {done.returncode})")
    return json.loads(lines[-1])


def quartiles(values: "list[float]") -> "tuple[float, float]":
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(a: "list[float]", b: "list[float]", bound: float,
            higher: bool) -> str:
    """``ok``, ``worse`` or ``unresolved``: B's runs against A's under
    a relative regression ``bound``."""
    if (min(b) > max(a)) if higher else (max(b) < min(a)):
        return "ok"
    med_a = statistics.median(a)
    a1, a3 = quartiles(a)
    if not med_a:
        return "ok" if statistics.median(b) == med_a else "unresolved"
    if (a3 - a1) / abs(med_a) > bound:
        return "unresolved"
    loss = (statistics.median(b) - med_a) / abs(med_a)
    return "worse" if (-loss if higher else loss) > bound else "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", type=Path, help="checkout A (the parent)")
    parser.add_argument("b", type=Path, help="checkout B (the change)")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every declared workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair")
    args = parser.parse_args(argv)

    spec = json.loads((args.b / "BENCHMARK.json").read_text())
    declared = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or declared
    unknown = sorted(set(workloads) - set(declared))
    if unknown:
        parser.error(f"not in BENCHMARK.json: {', '.join(unknown)}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    metrics = spec["end_to_end"]
    sides = {"A": args.a.resolve(), "B": args.b.resolve()}

    #: (workload, metric) -> side -> one value per pair.
    values = {(w, m["name"]): {"A": [], "B": []}
              for w in workloads for m in metrics}
    failed = {w: {"A": 0, "B": 0} for w in workloads}
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = "AB" if pair % 2 == 0 else "BA"
        for workload in workloads:
            for side in order:
                result = run_once(
                    sides[side], spec["command"], workload, seed, seconds)
                failed[workload][side] += result["failed"]
                cells = []
                for metric in metrics:
                    value = result["metrics"][metric["name"]]["value"]
                    values[workload, metric["name"]][side].append(value)
                    cells.append(f"{metric['name']}={value:.6g}")
                print(f"pair {pair} seed {seed} {workload} {side} "
                      f"(ran {'first' if order[0] == side else 'second'}): "
                      f"{' '.join(cells)} failed={result['failed']}",
                      file=sys.stderr, flush=True)

    print(f"A = {sides['A']}\nB = {sides['B']}\n"
          f"{args.pairs} pairs, --seconds {seconds:g}, seeds "
          f"{args.seed}..{args.seed + args.pairs - 1}")
    for workload in workloads:
        print(f"\n{workload}  failed A={failed[workload]['A']} "
              f"B={failed[workload]['B']}")
        print(f"  {'metric':18s} {'A median':>11s} {'A q1..q3':>23s} "
              f"{'B median':>11s} {'B q1..q3':>23s} {'B/A':>6s} {'B wins':>7s} "
              f"verdict")
        for metric in metrics:
            a = values[workload, metric["name"]]["A"]
            b = values[workload, metric["name"]]["B"]
            higher = metric["better"] == "higher"
            wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
            med_a, med_b = statistics.median(a), statistics.median(b)
            (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
            ratio = f"{med_b / med_a:6.3f}" if med_a else "   n/a"
            print(f"  {metric['name']:18s} {med_a:11.6g} "
                  f"{a1:11.6g}..{a3:<10.6g} {med_b:11.6g} "
                  f"{b1:11.6g}..{b3:<10.6g} {ratio} "
                  f"{wins:3d}/{args.pairs:<3d} "
                  f"{verdict(a, b, metric['bound'], higher)}")
    return 1 if any(n for by_side in failed.values()
                    for n in by_side.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
