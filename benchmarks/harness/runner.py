"""Pass orchestration and metric assembly.

A *pass* is one fresh stack run to its horizon.  A *run* of a workload is
one small warm-up pass plus the measured passes; the reported value of a
metric is the median over the measured passes.  End-to-end metrics come
only from passes with no wrapper installed; the traced run (``trace=True``)
adds one wrapped pass for the per-layer table and, beside it, the
untraced diagnostic passes the per-layer metrics need (observability
overhead, open-loop latency, async-vs-sim overhead).
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field, replace

from . import openloop, oracle, sut, workloads
from .trace import Tracer

#: Measured passes per run (the warm-up pass is extra).
PASSES = 5
#: Untraced reference passes of a traced run.
TRACED_RUN_REFERENCE_PASSES = 2
#: The traced run must account for the wall of its root within this.
CLOSURE_LIMIT_PCT = 5.0

#: Every layer that gets a ``<layer>.self_ns_per_tuple`` row.
SELF_TIME_LAYERS = (
    "harness.replay", "pubsub.broker", "pubsub.partition", "network.netsim",
    "network.simclock", "runtime.process", "runtime.monitor",
    "runtime.rebalance", "streams.fused", "streams.trigger",
    "streams.aggregate", "streams.join", "streams.shard", "streams.sink",
    "streams.ops",
)


@dataclass
class PassResult:
    """What one pass measured and produced."""

    tuples: int
    #: Wall and CPU seconds of the measured window (the ``run_until``).
    wall_s: float
    cpu_s: float
    setup: dict
    counters: dict
    failed: int
    digests: dict
    segments: list = field(default_factory=list)
    table: "object | None" = None

    @property
    def throughput(self) -> float:
        return self.tuples / self.wall_s


class HarnessError(RuntimeError):
    """The benchmark itself is broken (not the system under test)."""


def check(system: "sut.System", expected: oracle.Expected,
          counters: dict) -> "tuple[int, dict]":
    """Failed operations of a pass and the digests of its sinks.

    Failed = dropped + dead-lettered + quarantined + results missing from
    or extra in a sink, against the oracle.
    """
    sinks = {
        "warehouse": (expected.warehouse, system.warehouse_rows()),
        "sticker": (expected.sticker, system.sticker_bins()),
        "pairs": (expected.pairs, system.pairs()),
    }
    failed = (counters["net_dropped"] + counters["dead_lettered"]
              + counters["quarantined"] + counters["warehouse_rejected"])
    digests = {}
    for name, (want, got) in sinks.items():
        failed += oracle.mismatches(want, got)
        digests[name] = oracle.digest(got)
    failed += abs(counters["tuples_suppressed"] - expected.suppressed)
    failed += abs(counters["sticker_pushed"] - expected.pushed)
    return failed, digests


def run_pass(inputs: workloads.Inputs, expected: oracle.Expected,
             obs: str = sut.OBS_OFF, tracer: "Tracer | None" = None,
             time_sinks: bool = False) -> PassResult:
    """One pass on a fresh stack, checked against the oracle.

    The collector runs before the pass and stays out of it, set-up
    included: a generational collection in the middle of materialising
    10^5 tuples, or of the measured window, is harness noise.
    """
    gc.collect()
    gc.disable()
    try:
        system = sut.System(inputs, obs=obs, time_sinks=time_sinks)
        try:
            gc.freeze()
            wall0, cpu0 = time.perf_counter(), time.process_time()
            if tracer is not None:
                tracer.run_root(system.run, sut.ROOT_LAYER[inputs.backend])
            else:
                system.run()
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            counters = system.counters()
            failed, digests = check(system, expected, counters)
            result = PassResult(
                tuples=inputs.tuples, wall_s=wall, cpu_s=cpu,
                setup=system.setup, counters=counters, failed=failed,
                digests=digests,
                table=tracer.table() if tracer is not None else None,
            )
            if time_sinks:
                _open_loop(system, expected, result)
            return result
        finally:
            system.close()
    finally:
        gc.unfreeze()
        gc.enable()


def _open_loop(system: "sut.System", expected, result: PassResult) -> None:
    inputs = system.inputs
    due_of = {}
    for spec in inputs.sensors:
        for seq, (at, _) in enumerate(spec.readings):
            due_of[(spec.sensor_id, seq)] = at
    result.segments = openloop.segment_stats(
        inputs.segments,
        ((at, ns / 1e9) for at, ns in system.publishes()),
        (((source, seq), ns / 1e9)
         for source, seq, ns in system.sticker_arrivals()),
        due_of,
        expected.sticker_keys,
    )
    for stats, share in zip(result.segments, system.busy_shares()):
        stats["busy_share"] = share


def traced_pass(inputs, expected) -> PassResult:
    """One pass with the entry-point wrappers installed."""
    tracer = Tracer()
    tracer.install(
        sut.ENTRY_POINTS,
        operator_classes=sut.operator_classes(),
        operator_methods=sut.OPERATOR_METHODS,
        operator_layer=sut.operator_layer,
    )
    try:
        return run_pass(inputs, expected, tracer=tracer)
    finally:
        tracer.uninstall()


# -- a run of one workload ---------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values))


def _assert_repeat(passes: "list[PassResult]") -> None:
    """Counts that must repeat exactly for a seed, and the sink digests."""
    exact = ("tuples_suppressed", "warehouse_rows", "sticker_pushed",
             "pairs_out", "publish_calls")
    first = passes[0]
    for other in passes[1:]:
        for name in exact:
            if other.counters[name] != first.counters[name]:
                raise HarnessError(
                    f"{name} differs between passes of one seed: "
                    f"{first.counters[name]} vs {other.counters[name]}")
        if other.digests != first.digests:
            raise HarnessError(
                f"sink digests differ between passes of one seed: "
                f"{first.digests} vs {other.digests}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RunResult:
    workload: str
    attempted: int
    failed: int
    metrics: dict
    detail: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> RunResult:
    """Warm up, measure, check; returns the metrics of the chosen mode."""
    parts = workloads.build(name, seed, seconds, smoke)
    expected = {part: oracle.expected(inp) for part, inp in parts.items()}
    main = parts.get("main") or parts["free"]
    main_expected = expected.get("main") or expected["free"]
    attempted = failed = 0

    def done(results) -> None:
        nonlocal attempted, failed
        for result in results:
            attempted += result.tuples
            failed += result.failed

    if not smoke:   # a smoke run times nothing, so nothing needs warming
        for inputs in (parts.values() if trace else [main]):
            warm = workloads.warmup(inputs)
            done([run_pass(warm, oracle.expected(warm),
                           time_sinks=bool(inputs.segments))])

    if not trace:
        passes = [run_pass(main, main_expected)
                  for _ in range(2 if smoke else PASSES)]
        done(passes)
        _assert_repeat(passes)
        metrics = {
            "setup_s": _metric(
                _median(p.setup["total_s"] for p in passes), "s"),
            "throughput_tps": _metric(
                _median(p.throughput for p in passes), "1/s"),
            "cpu_us_per_tuple": _metric(
                _median(p.cpu_s / p.tuples * 1e6 for p in passes), "us"),
            "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
        }
        detail = {"passes": [
            {"wall_s": p.wall_s, "cpu_s": p.cpu_s, "setup": p.setup}
            for p in passes
        ], "digests": passes[0].digests}
        return RunResult(name, attempted, failed, metrics, detail)

    reference = [run_pass(main, main_expected)
                 for _ in range(1 if smoke else TRACED_RUN_REFERENCE_PASSES)]
    traced = traced_pass(main, main_expected)
    done(reference + [traced])
    _assert_repeat(reference + [traced])
    metrics, detail = _layer_metrics(reference, traced)

    if main.flow == "osaka" and main.backend == "sim":
        base = _median(p.wall_s for p in reference)
        for mode, key in ((sut.OBS_PROBE, "obs.probe_overhead_pct"),
                          (sut.OBS_TRACING, "obs.tracing_overhead_pct")):
            observed = run_pass(main, main_expected, obs=mode)
            done([observed])
            metrics[key] = (observed.wall_s / base - 1.0) * 100.0

    if "paced" in parts:
        # Segment 0's input, unchanged, on the simulator.
        on_sim = run_pass(replace(main, backend="sim"), main_expected)
        done([on_sim])
        metrics["runtime.backends.overhead_x"] = (
            _median(p.wall_s for p in reference) / on_sim.wall_s)
        paced = [run_pass(parts["paced"], expected["paced"], time_sinks=True)
                 for _ in range(1 if smoke else PASSES)]
        done(paced)
        _assert_repeat(paced)
        _open_loop_metrics(paced, metrics, detail)

    metrics["failed_share"] = failed / attempted
    for key in PER_LAYER_UNITS:
        metrics.setdefault(key, 0.0)
    return RunResult(
        name, attempted, failed,
        {key: _metric(float(metrics[key]), unit)
         for key, unit in PER_LAYER_UNITS.items()},
        detail,
    )


# -- per-layer metrics -------------------------------------------------------

_NS, _COUNT, _MS, _PCT, _RATIO = "ns", "count", "ms", "%", "ratio"

#: Every per-layer metric and its unit, in print order (BENCHMARK.json's
#: ``per_layer`` list is generated from this).
PER_LAYER_UNITS = {
    "failed_share": _RATIO,
    "lat_p50_ms": _MS,
    "sustained_rate_tps": "1/s",
    "pubsub.stamping.ns_per_tuple": _NS,
    **{f"{layer}.self_ns_per_tuple": _NS for layer in SELF_TIME_LAYERS},
    "pubsub.broker.publish_calls": _COUNT,
    "pubsub.broker.fanout": _RATIO,
    "pubsub.broker.tuples_suppressed": _COUNT,
    "network.netsim.messages": _COUNT,
    "network.netsim.bytes": "B",
    "network.netsim.dropped": _COUNT,
    "network.simclock.events": _COUNT,
    "runtime.process.calls": _COUNT,
    "runtime.process.checkpoint_ms_p50": _MS,
    "runtime.executor.deploy_ms": _MS,
    "runtime.rebalance.migrations": _COUNT,
    "runtime.rebalance.splits": _COUNT,
    "runtime.backends.loop_self_ns_per_tuple": _NS,
    "runtime.backends.backpressure_stalls": _COUNT,
    "runtime.backends.busy_share": _RATIO,
    "runtime.backends.overhead_x": _RATIO,
    **{f"runtime.backends.lat_{p}_ms_r{rate}": _MS
       for rate in workloads.RATES for p in ("p95", "p99")},
    "streams.fused.tuples_in": _COUNT,
    "streams.fused.tuples_out": _COUNT,
    "streams.trigger.activations": _COUNT,
    "streams.aggregate.flush_ms_p50": _MS,
    "streams.aggregate.groups_max": _COUNT,
    "streams.join.pairs_out": _COUNT,
    "streams.shard.skew": _RATIO,
    "streams.quarantined": _COUNT,
    "warehouse.load_ns_per_row": _NS,
    "warehouse.rows": _COUNT,
    "sticker.push_ns_per_tuple": _NS,
    "sticker.pushed": _COUNT,
    "obs.probe_overhead_pct": _PCT,
    "obs.tracing_overhead_pct": _PCT,
    "harness.closure_pct": _PCT,
    "harness.trace_overhead_pct": _PCT,
    **{f"harness.gen_late_p99_ms_r{rate}": _MS for rate in workloads.RATES},
    "harness.pass_spread_pct": _PCT,
}


def _p50_ms(durations_ns) -> float:
    return float(statistics.median(durations_ns)) / 1e6 if len(
        durations_ns) else 0.0


def _layer_metrics(reference, traced) -> "tuple[dict, dict]":
    table = traced.table
    tuples = traced.tuples
    counters = traced.counters
    layers = table.by_layer()
    kinds = table.by_kind()
    closure = table.closure_pct(traced.wall_s * 1e9)
    if closure > CLOSURE_LIMIT_PCT:
        raise HarnessError(
            f"layer table does not close: {closure:.2f}% of the root's "
            f"wall is unaccounted for (limit {CLOSURE_LIMIT_PCT}%)")
    m: dict = {}
    for layer, (self_ns, _) in layers.items():
        key = ("runtime.backends.loop_self_ns_per_tuple"
               if layer == "runtime.backends"
               else f"{layer}.self_ns_per_tuple")
        if key not in PER_LAYER_UNITS:
            continue   # sinks are reported per row / per push below
        m[key] = self_ns / tuples
    walls = [p.wall_s for p in reference]
    ref_wall = _median(walls)
    process_calls = sum(
        calls for kind, (_, calls) in kinds.items()
        if kind in ("runtime.process:receive",
                    "runtime.process:receive_batch"))
    load_ns, loads = layers.get("warehouse", (0.0, 0))
    push_ns, pushes = layers.get("sticker", (0.0, 0))
    m.update({
        "pubsub.stamping.ns_per_tuple":
            _median(p.setup["materialise_s"] for p in reference)
            * 1e9 / tuples,
        "pubsub.broker.publish_calls": counters["publish_calls"],
        "pubsub.broker.fanout":
            counters["deliveries"] / counters["publish_calls"],
        "pubsub.broker.tuples_suppressed": counters["tuples_suppressed"],
        "network.netsim.messages": counters["net_messages"],
        "network.netsim.bytes": counters["net_bytes"],
        "network.netsim.dropped": counters["net_dropped"],
        "network.simclock.events": counters["events"],
        "runtime.process.calls": process_calls,
        "runtime.process.checkpoint_ms_p50": _p50_ms(
            table.durations_of("runtime.process:checkpoint_now")),
        "runtime.executor.deploy_ms":
            _median(p.setup["deploy_s"] for p in reference) * 1e3,
        "runtime.rebalance.migrations": counters["migrations"],
        "runtime.rebalance.splits": counters["splits"],
        "runtime.backends.backpressure_stalls":
            counters["backpressure_stalls"],
        "streams.fused.tuples_in": counters["fused_in"],
        "streams.fused.tuples_out": counters["fused_out"],
        "streams.trigger.activations": counters["activations"],
        "streams.aggregate.flush_ms_p50": _p50_ms(
            table.durations_of("streams.aggregate:on_timer")),
        "streams.aggregate.groups_max": counters["groups_max"],
        "streams.join.pairs_out": counters["pairs_out"],
        "streams.shard.skew": counters["shard_skew"],
        "streams.quarantined":
            counters["quarantined"] + counters["warehouse_rejected"],
        "warehouse.load_ns_per_row":
            load_ns / loads if loads else 0.0,
        "warehouse.rows": counters["warehouse_rows"],
        "sticker.push_ns_per_tuple":
            push_ns / pushes if pushes else 0.0,
        "sticker.pushed": counters["sticker_pushed"],
        "harness.closure_pct": closure,
        "harness.trace_overhead_pct":
            (traced.wall_s / ref_wall - 1.0) * 100,
        "harness.pass_spread_pct":
            (max(walls) - min(walls)) / ref_wall * 100.0,
    })
    detail = {
        "layers_ns_per_tuple": {
            layer: self_ns / tuples
            for layer, (self_ns, _) in layers.items()
        },
        "root_ms": table.root_ns / 1e6,
        "tuples": tuples,
        "table": table,
    }
    return m, detail


def _open_loop_metrics(paced, metrics: dict, detail: dict) -> None:
    by_rate: dict = {}
    for result in paced:
        for stats in result.segments:
            by_rate.setdefault(stats["rate"], []).append(stats)
    for rate, runs in by_rate.items():
        for p in ("p95", "p99"):
            metrics[f"runtime.backends.lat_{p}_ms_r{rate}"] = _median(
                s[f"{p}_ms"] for s in runs)
        metrics[f"harness.gen_late_p99_ms_r{rate}"] = _median(
            s["gen_late_p99_ms"] for s in runs)
    at = by_rate[workloads.LATENCY_RATE]
    metrics["lat_p50_ms"] = _median(s["p50_ms"] for s in at)
    metrics["sustained_rate_tps"] = _median(
        openloop.sustained_rate(r.segments) for r in paced)
    metrics["runtime.backends.busy_share"] = _median(
        s["busy_share"] for s in at)
    detail["open_loop"] = {
        rate: {"samples": _median(s["samples"] for s in runs),
               "p50_ms": _median(s["p50_ms"] for s in runs),
               "p95_ms": _median(s["p95_ms"] for s in runs),
               "gen_late_end_ms": _median(s["gen_late_end_ms"] for s in runs)}
        for rate, runs in by_rate.items()
    }
