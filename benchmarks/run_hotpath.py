"""Hot-path before/after benchmark runner (writes ``BENCH_2.json``).

Measures the data-plane fast paths against their reference ("before")
implementations, which remain available behind escape hatches:

- expression evaluation: tree-walking interpreter
  (``CompiledExpression.interpret``) vs the generated closure
  (``CompiledExpression.evaluate``);
- message routing: per-call shortest-path recomputation
  (``Topology.route_uncached``) vs the generation-counter route cache
  (``Topology.route_info``), on a static 8-node line topology;
- end-to-end send+deliver over the simulator, ``cache_routes=False`` vs
  ``True``;
- broker fan-out: ``publish_data`` to many subscriptions over the
  simulated network, uncached vs cached routing;
- aggregation flush at several sliding-window sizes,
  ``incremental=False`` vs ``True``;
- join flush at several window sizes, the nested-loop reference vs the
  hash flush.

Usage::

    python -m benchmarks.run_hotpath --json            # full run
    python -m benchmarks.run_hotpath --json --smoke    # CI smoke (tiny)

``--json`` writes BENCH_2.json in the repository root (or ``--out PATH``);
without it the results are printed only.  The smoke profile exists so CI
can prove the harness runs — its numbers are noise, not a trajectory.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from benchmarks._timing import best_rate as _best_rate
from repro.expr.eval import compile_expression
from repro.network.netsim import NetworkSimulator
from repro.network.topology import Topology
from repro.pubsub.broker import BrokerNetwork
from repro.pubsub.registry import SensorMetadata
from repro.pubsub.subscription import SubscriptionFilter
from repro.schema.schema import StreamSchema
from repro.streams.aggregate import AggregationOperator
from repro.streams.join import JoinOperator
from repro.streams.tuple import SensorTuple
from repro.stt.event import SttStamp
from repro.stt.spatial import Point

#: (name, source) pairs representative of filter/virtual-property/join use.
EXPRESSIONS = [
    ("filter", "temperature > 24 and humidity < 0.8"),
    ("arith", "(temperature * 1.8 + 32) / 2 > 30 or humidity * 100 < 45"),
    ("func", "contains(station, 'umeda') or temperature > 30"),
]

PAYLOAD = {"temperature": 26.5, "humidity": 0.55, "station": "umeda-north"}


def _make_tuple(i: int, station: str, value: float, at: float = 0.0) -> SensorTuple:
    return SensorTuple(
        payload={"station": station, "temperature": value},
        stamp=SttStamp(
            time=at, location=Point(34.5 + (i % 13) * 0.01, 135.3 + (i % 7) * 0.01)
        ),
        source="bench",
        seq=i,
    )


def _line_topology(cache_routes: bool = True) -> Topology:
    """The static 8-node topology the routing numbers are quoted on."""
    topo = Topology(cache_routes=cache_routes)
    for i in range(8):
        topo.add_node(f"n{i}")
    for i in range(7):
        topo.add_link(f"n{i}", f"n{i + 1}", latency=0.001)
    return topo


# -- measurements -----------------------------------------------------------


def bench_expr_eval(iterations: int) -> dict:
    out = {}
    for name, source in EXPRESSIONS:
        expr = compile_expression(source).prepare()

        def interpreted(n, expr=expr):
            interpret = expr.interpret
            for _ in range(n):
                interpret(PAYLOAD)

        def compiled(n, expr=expr):
            evaluate = expr.evaluate
            for _ in range(n):
                evaluate(PAYLOAD)

        before = _best_rate(interpreted, iterations)
        after = _best_rate(compiled, iterations)
        out[name] = {
            "before_ops_per_sec": round(before),
            "after_ops_per_sec": round(after),
            "speedup": round(after / before, 2),
        }
    return out


def bench_route_messages(iterations: int) -> dict:
    """Routing a message across the static topology: recompute vs cache."""
    topo = _line_topology()

    def uncached(n):
        route = topo.route_uncached
        for _ in range(n):
            route("n0", "n7")

    def cached(n):
        route_info = topo.route_info
        for _ in range(n):
            route_info("n0", "n7")

    before = _best_rate(uncached, max(iterations // 20, 100))
    after = _best_rate(cached, iterations)
    return {
        "before_ops_per_sec": round(before),
        "after_ops_per_sec": round(after),
        "speedup": round(after / before, 2),
    }


def bench_send_deliver(iterations: int) -> dict:
    """Full simulator cycle: route, account, schedule, deliver."""

    def cycle(n, cache_routes=True):
        sim = NetworkSimulator(topology=_line_topology(cache_routes))
        sink = lambda payload: None
        send = sim.send
        run = sim.clock.run
        batch = 500
        done = 0
        while done < n:
            for _ in range(batch):
                send("n0", "n7", 1, 100.0, sink)
            run()
            done += batch

    before = _best_rate(lambda n: cycle(n, cache_routes=False),
                        max(iterations // 10, 500))
    after = _best_rate(cycle, iterations)
    return {
        "before_ops_per_sec": round(before),
        "after_ops_per_sec": round(after),
        "speedup": round(after / before, 2),
    }


def bench_publish_fanout(iterations: int, subscribers: int = 20) -> dict:
    """Broker fan-out of one reading to many subscriptions over the net."""

    def fanout(n, cache_routes=True):
        sim = NetworkSimulator(topology=_line_topology(cache_routes))
        network = BrokerNetwork(netsim=sim)
        for i in range(subscribers):
            network.subscribe(
                f"n{i % 8}",
                SubscriptionFilter(),
                lambda tuple_: None,
            )
        network.publish(SensorMetadata(
            sensor_id="bench-sensor",
            sensor_type="weather",
            schema=StreamSchema.build(
                {"temperature": "float"}, themes=("weather/temperature",)
            ),
            frequency=1.0,
            location=Point(34.69, 135.50),
            node_id="n0",
        ))
        reading = _make_tuple(0, "umeda", 25.0)
        publish_data = network.publish_data
        run = sim.clock.run
        batch = 50
        done = 0
        while done < n:
            for _ in range(batch):
                publish_data("bench-sensor", reading)
            run()
            done += batch

    before = _best_rate(lambda n: fanout(n, cache_routes=False),
                        max(iterations // 10, 50))
    after = _best_rate(fanout, iterations)
    return {
        "subscribers": subscribers,
        "before_ops_per_sec": round(before),
        "after_ops_per_sec": round(after),
        "speedup": round(after / before, 2),
    }


def bench_aggregate_flush(window_sizes: "list[int]", flushes: int) -> dict:
    """Sliding-window AVG flush: rescan vs running accumulators.

    The window is fed once outside the timed region; flushes on a sliding
    window consume nothing, so each timed iteration aggregates the same
    standing window — exactly the per-interval work the operator repeats
    in steady state.
    """
    out = {}
    for size in window_sizes:
        ops = {}
        for incremental in (False, True):
            op = AggregationOperator(
                interval=60.0, attributes=["temperature"], function="AVG",
                group_by="station", window=1e12, incremental=incremental,
            )
            for i in range(size):
                op.on_tuple(_make_tuple(i, f"st-{i % 10}", float(i % 37), at=float(i)))
            ops[incremental] = op

        def flush(n, op=None):
            now = 1e9
            timer = op.on_timer
            for _ in range(n):
                now += 60.0
                timer(now)

        before = _best_rate(
            lambda n: flush(n, op=ops[False]), max(flushes // 5, 2))
        after = _best_rate(lambda n: flush(n, op=ops[True]), flushes)
        out[f"window_{size}"] = {
            "before_flushes_per_sec": round(before, 1),
            "after_flushes_per_sec": round(after, 1),
            "speedup": round(after / before, 2),
        }
    return out


def bench_join_flush(window_sizes: "list[int]", flushes: int) -> dict:
    """Equi-join flush: nested loop vs hash join (feed + flush cycle)."""
    out = {}
    for size in window_sizes:
        left = [_make_tuple(i, f"st-{i % 25}", float(i)) for i in range(size)]
        right = [_make_tuple(i, f"st-{i % 25}", float(i)) for i in range(size)]

        op = JoinOperator(
            interval=60.0, predicate="left.station == right.station")

        def flush(n):
            for _ in range(n):
                for t in left:
                    op.on_tuple(t, port=0)
                for t in right:
                    op.on_tuple(t, port=1)
                op.on_timer(60.0)

        def reference(n):  # the nested loop, called directly on the windows
            for _ in range(n):
                op._nested_loop_flush(left, right, 60.0)

        before = _best_rate(reference, max(flushes // 5, 1))
        after = _best_rate(flush, flushes)
        out[f"window_{size}"] = {
            "before_flushes_per_sec": round(before, 1),
            "after_flushes_per_sec": round(after, 1),
            "speedup": round(after / before, 2),
        }
    return out


# -- runner -----------------------------------------------------------------


def run(smoke: bool = False) -> dict:
    scale = 20 if smoke else 1
    expr_iters = 200_000 // scale
    route_iters = 200_000 // scale
    send_iters = 50_000 // scale
    fanout_iters = 2_000 // scale
    agg_windows = [500, 2_000] if smoke else [1_000, 5_000, 20_000]
    agg_flushes = 100 // scale or 2
    join_windows = [50, 100] if smoke else [100, 200, 400]
    join_flushes = 20 // scale or 1

    results = {
        "expr_eval": bench_expr_eval(expr_iters),
        "route_messages": bench_route_messages(route_iters),
        "send_deliver": bench_send_deliver(send_iters),
        "publish_fanout": bench_publish_fanout(fanout_iters),
        "aggregate_flush": bench_aggregate_flush(agg_windows, agg_flushes),
        "join_flush": bench_join_flush(join_windows, join_flushes),
    }
    return {
        "bench": "hotpath",
        "issue": 2,
        "smoke": smoke,
        "topology": "line-8 (static)",
        "notes": {
            "expr_eval": "per-tuple condition evaluation, interpreter vs "
                         "compiled closure",
            "route_messages": "shortest-path resolution per message, "
                              "recompute vs generation-counter cache",
            "send_deliver": "full simulator cycle incl. per-link accounting "
                            "and event dispatch",
            "publish_fanout": "broker publish_data to 20 subscriptions over "
                              "the simulated network",
            "aggregate_flush": "sliding-window grouped AVG, rescan vs "
                               "running accumulators",
            "join_flush": "equi-predicate window join, nested loop vs "
                          "hash join (feed+flush cycle)",
        },
        "results": results,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true",
                        help="write BENCH_2.json next to the repo root")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny iteration counts (CI crash check)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default: <repo>/BENCH_2.json)")
    args = parser.parse_args()

    report = run(smoke=args.smoke)
    text = json.dumps(report, indent=2)
    print(text)
    if args.json:
        out = args.out or Path(__file__).resolve().parent.parent / "BENCH_2.json"
        out.write_text(text + "\n")
        print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
