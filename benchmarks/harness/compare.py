"""``--compare A.json B.json``: did B get worse than A, metric by metric?

Reads two result sets written by ``--report`` and the regression bounds
in ``BENCHMARK.json``, and prints one row per (end-to-end metric x
workload):

- ``regressed``  — B's median is worse than A's by more than the bound;
- ``improved``   — better by more than the bound;
- ``unresolved`` — neither, but the run-to-run spread (interquartile
  range over median, the wider of the two sets) exceeds the bound, or a
  set has too few runs (under 4) to estimate it, so "unchanged" cannot
  be claimed;
- ``unchanged``  — otherwise.

The two open-loop metrics exist on ``async-openloop-b1`` only, so they
cannot be ``end_to_end`` entries of ``BENCHMARK.json`` (which must hold
on every workload); their bounds live here.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: The workload that has the open-loop metrics, and for each of them
#: (better, bound).  One ladder step of ``sustained_rate_tps`` is a factor
#: of two, so any bound below 0.5 flags a lost step.  Two back-to-back
#: result sets of one commit differed by 16 % in ``lat_p50_ms`` on the
#: development box.
OPEN_LOOP_WORKLOAD = "async-openloop-b1"
OPEN_LOOP_BOUNDS = {
    "lat_p50_ms": ("lower", 0.25),
    "sustained_rate_tps": ("higher", 0.25),
}


def is_end_to_end(workload: str, metric: str, traced: bool) -> bool:
    """Whether a printed metric is one ``--compare`` gates.

    Everything an untraced run prints is; of a traced run's metrics, the
    open-loop ones on their workload, whatever their value (a sustained
    rate of 0 is the worst result, not a missing one).
    """
    return not traced or (
        workload == OPEN_LOOP_WORKLOAD and metric in OPEN_LOOP_BOUNDS)


def bounds() -> "dict[str, tuple[str, float]]":
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    out.update(OPEN_LOOP_BOUNDS)
    return out


def spread(values: "list[float]") -> float:
    """Interquartile range as a share of the median.

    Infinite when it cannot be estimated: under 4 values, or a median of
    0 among values that differ.
    """
    if len(values) < 4:
        return math.inf
    q1, _, q3 = statistics.quantiles(values, n=4)
    if q3 == q1:
        return 0.0
    median = abs(statistics.median(values))
    return (q3 - q1) / median if median else math.inf


def verdict(a: "list[float]", b: "list[float]", better: str,
            bound: float) -> "tuple[str, float, float]":
    """(verdict, B's change for the worse as a share of A, spread)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    if med_a:
        worse = (med_b - med_a) / abs(med_a)
    else:   # e.g. a sustained rate of 0: any move is beyond every bound
        worse = math.copysign(math.inf, med_b) if med_b else 0.0
    if better == "higher":
        worse = -worse
    wide = max(spread(a), spread(b))
    if worse > bound:
        return "regressed", worse, wide
    if worse < -bound:
        return "improved", worse, wide
    if wide > bound:
        return "unresolved", worse, wide
    return "unchanged", worse, wide


def compare(path_a: str, path_b: str) -> int:
    """Print the table; returns the number of regressed rows."""
    set_a = json.loads(Path(path_a).read_text())["workloads"]
    set_b = json.loads(Path(path_b).read_text())["workloads"]
    regressed = 0
    limits = bounds()
    print(f"{'workload':20s} {'metric':20s} {'A median':>12s} "
          f"{'B median':>12s} {'worse by':>9s} {'spread':>7s} "
          f"{'bound':>6s}  verdict")
    for workload in set_a:
        if workload not in set_b:
            continue
        for metric, (better, bound) in limits.items():
            a = set_a[workload]["end_to_end"].get(metric)
            b = set_b[workload]["end_to_end"].get(metric)
            if a is None and b is None:
                continue   # an open-loop metric on another workload
            if a is None or b is None:
                raise ValueError(
                    f"{workload}: {metric} is in only one of the two sets")
            word, worse, wide = verdict(a["values"], b["values"],
                                        better, bound)
            regressed += word == "regressed"
            print(f"{workload:20s} {metric:20s} "
                  f"{statistics.median(a['values']):12.4f} "
                  f"{statistics.median(b['values']):12.4f} "
                  f"{worse:+9.1%} {wide:7.1%} {bound:6.2f}  {word}")
    total_failed = sum(w["failed"] for s in (set_a, set_b)
                       for w in s.values())
    print(f"failed operations across both sets: {total_failed}")
    return regressed + (1 if total_failed else 0)
