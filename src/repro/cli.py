"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``scenario``   — run the paper's Section 3 scenario and print the
  monitoring dashboard, trigger log, and warehouse roll-up;
- ``operators``  — list the Table 1 operator palette;
- ``validate``   — consistency-check a saved canvas document (JSON)
  against the Osaka fleet's registry;
- ``translate``  — print the DSN program of a saved canvas document;
- ``sensors``    — list the (simulated) sensor fleet with advertisements;
- ``trace``      — run a dataflow with tracing on and print span trees
  (slowest sink-reaching traces, or the trace of one tuple) with lineage;
- ``metrics``    — run the scenario and print the metrics registry in
  Prometheus text exposition (or JSON snapshot) form.
- ``health``     — run a dataflow under SLO rules and print the latency/
  watermark health screen (or its deterministic JSON payload).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from repro.dataflow.serialize import dataflow_from_dict
from repro.dsn.check import check
from repro.designer.palette import OPERATOR_PALETTE
from repro.dsn.generate import dataflow_to_dsn
from repro.errors import StreamLoaderError
from repro.pubsub.subscription import BatchingPolicy
from repro.scenario import (
    build_stack,
    osaka_scenario_flow,
    sharded_aggregation_flow,
)


def _shards_from(args: argparse.Namespace):
    """--shards -> the blanket shard count handed to deploy (or None).

    A blanket request only touches operators with partition keys, so on
    flows without one (the osaka scenario) it is a documented no-op; use
    the ``stations`` dataflow to see sharding in action.
    """
    shards = getattr(args, "shards", 1)
    return shards if shards > 1 else None


def _apply_rebalance(args: argparse.Namespace, stack) -> bool:
    """--rebalance/--split-hot-keys -> executor rebalance config.

    Returns the ``elastic`` flag handed to deploy.  ``--split-hot-keys``
    implies ``--rebalance`` (splitting is one of the loop's actions).
    """
    rebalance = getattr(args, "rebalance", False)
    split = getattr(args, "split_hot_keys", False)
    if not (rebalance or split):
        return False
    from dataclasses import replace

    stack.executor.rebalance_config = replace(
        stack.executor.rebalance_config, split_hot_keys=split
    )
    return True


def _deploy(args: argparse.Namespace, stack, flow, slos=None):
    """Lower ``flow`` under the run flags, then deploy the program.

    ``--batch N --max-delay S`` write ``batch N within S`` on every
    channel out of a source, ``--shards``/``--rebalance`` the shard
    clauses, and ``slos`` the objectives.
    """
    program = dataflow_to_dsn(
        flow, stack.broker_network.registry,
        batching=BatchingPolicy(args.batch, args.max_delay),
        shards=_shards_from(args), elastic=_apply_rebalance(args, stack),
        slos=slos)
    return stack.executor.deploy(program)


def _backend_from(args: argparse.Namespace) -> dict:
    """``--backend``/``--time-scale`` -> build_stack keyword arguments."""
    return {
        "backend": getattr(args, "backend", "sim"),
        "time_scale": getattr(args, "time_scale", None),
    }


def _cmd_scenario(args: argparse.Namespace) -> int:
    stack = build_stack(hot=not args.cool, extended=args.extended,
                        seed=args.seed, **_backend_from(args))
    with stack:
        deployment = _deploy(args, stack, osaka_scenario_flow(stack))
        stack.run_until(args.hours * 3600.0)

    print(stack.executor.monitor.render_dashboard())
    print()
    controls = stack.executor.monitor.records("activate", "deactivate")
    if controls:
        for record in controls:
            command = record.facts["command"]
            verb = "activated" if command.activate else "deactivated"
            print(f"t={command.issued_at / 3600.0:05.1f}h {verb} "
                  f"{len(command.sensor_ids)} sensor stream(s)")
    else:
        print("trigger never fired (no gated acquisition)")
    print()
    print(f"warehouse: {len(stack.warehouse)} events | "
          f"sticker: {stack.sticker.pushed} tuples | "
          f"traffic collected: "
          f"{len(deployment.collected('traffic-collector'))}")
    return 0


def _named_flow(args: argparse.Namespace, stack):
    """The dataflow ``args.dataflow`` names: ``osaka`` (the Section 3
    scenario), ``stations`` (sharded per-station averages) or the path of
    a saved canvas JSON document."""
    if args.dataflow == "osaka":
        return osaka_scenario_flow(stack)
    if args.dataflow == "stations":
        return sharded_aggregation_flow(stack)
    return _load_canvas(args.dataflow)


def _observed_run(args: argparse.Namespace):
    """Build, deploy, and run a dataflow with observability attached."""
    stack = build_stack(
        hot=not getattr(args, "cool", False),
        extended=getattr(args, "extended", False),
        seed=getattr(args, "seed", 7),
        observability=args.sampling,
        **_backend_from(args),
    )
    with stack:
        deployment = _deploy(args, stack, _named_flow(args, stack))
        stack.run_until(args.hours * 3600.0)
    return stack, deployment


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.render import (
        render_trace,
        slowest_sink_traces,
        trace_for_tuple,
    )

    stack, _ = _observed_run(args)
    obs = stack.obs
    tracer = obs.tracer
    if args.tuple_id is not None:
        trace_id = trace_for_tuple(tracer, args.tuple_id)
        if trace_id is None:
            print(f"no retained trace recorded tuple {args.tuple_id!r} "
                  f"(sampled out, evicted, or never published)",
                  file=sys.stderr)
            return 1
        trace_ids = [trace_id]
    else:
        trace_ids = slowest_sink_traces(tracer, args.slowest)
        if not trace_ids:
            print("no trace reached a sink (did the trigger fire? "
                  "try --hours 15)", file=sys.stderr)
            return 1
    for i, trace_id in enumerate(trace_ids):
        if i:
            print()
        print(render_trace(tracer, trace_id, lineage=obs.lineage))
    print()
    print(f"{tracer.traces_started} traces started, "
          f"{len(tracer.trace_ids())} retained, "
          f"{obs.lineage.recorded} lineage records")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    stack, _ = _observed_run(args)
    registry = stack.obs.metrics
    if args.json:
        print(registry.to_json())
    else:
        print(registry.expose(), end="")
    return 0


#: CLI shorthand for one SLO rule: "metric OP threshold [over window]".
_SLO_EXPR_RE = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(<=|<|>=|>)\s*([0-9.eE+-]+)"
    r"(?:\s+over\s+([0-9.eE+-]+))?\s*$"
)

#: Rules installed when ``repro health`` is run without ``--slo``.
DEFAULT_SLO_EXPRS = (
    "p99_latency < 5.0",
    "watermark_lag < 900",
)


def parse_slo_expr(text: str, flow: str):
    """Parse one ``--slo`` expression into a :class:`DsnSlo` clause."""
    from repro.dsn.ast import DsnSlo

    match = _SLO_EXPR_RE.match(text)
    if not match:
        raise StreamLoaderError(
            f"cannot parse SLO rule {text!r} "
            f"(expected: metric OP threshold [over window])"
        )
    return DsnSlo(
        flow=flow,
        metric=match.group(1),
        op=match.group(2),
        threshold=float(match.group(3)),
        window=float(match.group(4) or 0.0),
    )


def _cmd_health(args: argparse.Namespace) -> int:
    from repro.obs.render import render_health

    stack = build_stack(
        hot=not args.cool,
        extended=args.extended,
        seed=args.seed,
        observability=args.sampling if args.sampling > 0 else None,
        latency=True,
        alert_cadence=args.cadence,
        **_backend_from(args),
    )
    with stack:
        flow = _named_flow(args, stack)
        exprs = args.slo or list(DEFAULT_SLO_EXPRS)
        _deploy(args, stack, flow,
                slos=[parse_slo_expr(expr, flow.name) for expr in exprs])
        engine = stack.executor.alerts
        logs = stack.executor.monitor.logs
        if args.watch:
            interval = max(args.cadence, 3600.0)

            def show() -> None:
                print(render_health(engine, logs))
                print()

            stack.clock.schedule_periodic(interval, show, start_delay=interval)
        stack.run_until(args.hours * 3600.0)
    if args.json:
        print(json.dumps(engine.health_json(logs), sort_keys=True, indent=2))
    else:
        print(render_health(engine, logs))
    return 0


def _cmd_operators(_args: argparse.Namespace) -> int:
    print(f"{'operation':18s} {'category':10s} parameters")
    for entry in OPERATOR_PALETTE:
        params = ", ".join(entry.parameters)
        print(f"{entry.name:18s} {entry.category:10s} {params}")
        print(f"{'':18s} {'':10s} {entry.description}")
    return 0


def _load_canvas(path: str):
    with open(path) as handle:
        return dataflow_from_dict(json.load(handle))


def _registry(args: argparse.Namespace):
    stack = build_stack(hot=True, extended=args.extended, attach_fleet=False)
    for sensor in stack.fleet:
        stack.broker_network.publish(sensor.metadata)
    return stack.broker_network.registry


def _cmd_validate(args: argparse.Namespace) -> int:
    registry = _registry(args)
    program = dataflow_to_dsn(_load_canvas(args.canvas), registry)
    report = check(program, registry)
    for issue in report.issues:
        print(issue)
    if report.is_valid:
        print(f"OK: {program.name!r} is consistent ({len(program.services)} "
              f"nodes, {len(program.channels)} edges)")
        return 0
    print(f"INVALID: {len(report.errors)} error(s)")
    return 1


def _cmd_translate(args: argparse.Namespace) -> int:
    registry = _registry(args)
    program = dataflow_to_dsn(_load_canvas(args.canvas), registry)
    check(program, registry).raise_if_invalid()
    print(program.render(), end="")
    return 0


def _cmd_sensors(args: argparse.Namespace) -> int:
    registry = _registry(args)
    print(f"{'sensor id':26s} {'type':16s} {'Hz':>8s} {'node':10s} themes")
    for metadata in sorted(registry.all(), key=lambda m: m.sensor_id):
        themes = ",".join(str(theme) for theme in metadata.themes)
        print(f"{metadata.sensor_id:26s} {metadata.sensor_type:16s} "
              f"{metadata.frequency:8.4f} {metadata.node_id:10s} {themes}")
    return 0


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    """Scenario/fleet/plan knobs shared by the run-a-dataflow commands."""
    parser.add_argument("--cool", action="store_true",
                        help="cool regime: the trigger must stay silent")
    parser.add_argument("--extended", action="store_true",
                        help="attach the full sensor roster")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--batch", type=int, default=1, metavar="N",
                        help="translate with 'batch N' on every source "
                             "channel: up to N tuples per source message "
                             "(default 1: no batching)")
    parser.add_argument("--max-delay", type=float, default=1.0, metavar="S",
                        help="translate with 'within S': flush a partial "
                             "batch after S virtual seconds (default 1.0)")
    parser.add_argument("--shards", type=int, default=1, metavar="N",
                        help="split each partitionable blocking operator "
                             "into N key-hashed shards (default 1: off)")
    parser.add_argument("--rebalance", action="store_true",
                        help="attach the elastic key-rebalance loop to "
                             "sharded operators")
    parser.add_argument("--split-hot-keys", action="store_true",
                        help="allow the rebalancer to split one hot key "
                             "across replicas (implies --rebalance)")


def _add_backend_args(parser: argparse.ArgumentParser) -> None:
    """Execution-backend knobs shared by the run-a-dataflow commands."""
    parser.add_argument("--backend", choices=("sim", "async"), default="sim",
                        help="execution backend: 'sim' (deterministic "
                             "discrete-event, the oracle) or 'async' (real "
                             "asyncio tasks over bounded queues)")
    parser.add_argument("--time-scale", type=float, default=0.0, metavar="X",
                        help="async pacing: X virtual seconds per wall "
                             "second (default 0: free-run as fast as the "
                             "event loop drains)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="StreamLoader (EDBT 2016) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scenario = sub.add_parser("scenario", help="run the Section 3 scenario")
    scenario.add_argument("--hours", type=float, default=18.0,
                          help="virtual hours to simulate (default 18)")
    _add_run_args(scenario)
    _add_backend_args(scenario)
    scenario.set_defaults(func=_cmd_scenario)

    operators = sub.add_parser("operators", help="list the Table 1 palette")
    operators.set_defaults(func=_cmd_operators)

    validate = sub.add_parser("validate",
                              help="consistency-check a canvas JSON document")
    validate.add_argument("canvas", help="path to a saved canvas document")
    validate.add_argument("--extended", action="store_true")
    validate.set_defaults(func=_cmd_validate)

    translate = sub.add_parser("translate",
                               help="print the DSN program of a canvas")
    translate.add_argument("canvas", help="path to a saved canvas document")
    translate.add_argument("--extended", action="store_true")
    translate.set_defaults(func=_cmd_translate)

    sensors = sub.add_parser("sensors", help="list the simulated fleet")
    sensors.add_argument("--extended", action="store_true")
    sensors.set_defaults(func=_cmd_sensors)

    trace = sub.add_parser(
        "trace", help="run a dataflow traced and print span trees + lineage"
    )
    trace.add_argument(
        "dataflow", nargs="?", default="osaka",
        help="'osaka' (Section 3 scenario), 'stations' (sharded "
             "per-station averages), or a canvas JSON path",
    )
    group = trace.add_mutually_exclusive_group()
    group.add_argument("--tuple-id", metavar="SOURCE#SEQ",
                       help="print the trace of one tuple (key: source#seq)")
    group.add_argument("--slowest", type=int, default=1, metavar="N",
                       help="print the N slowest sink-reaching traces")
    trace.add_argument("--hours", type=float, default=15.0,
                       help="virtual hours to simulate (default 15)")
    trace.add_argument("--sampling", type=float, default=1.0,
                       help="trace sampling rate in [0, 1] (default 1.0)")
    _add_run_args(trace)
    _add_backend_args(trace)
    trace.set_defaults(func=_cmd_trace)

    metrics = sub.add_parser(
        "metrics", help="run a dataflow and print the metrics registry"
    )
    metrics.add_argument(
        "dataflow", nargs="?", default="osaka",
        help="'osaka' (Section 3 scenario), 'stations' (sharded "
             "per-station averages), or a canvas JSON path",
    )
    metrics.add_argument("--hours", type=float, default=15.0,
                         help="virtual hours to simulate (default 15)")
    metrics.add_argument("--sampling", type=float, default=1.0,
                         help="trace sampling rate in [0, 1] (default 1.0)")
    metrics.add_argument("--json", action="store_true",
                         help="JSON snapshot instead of text exposition")
    _add_run_args(metrics)
    _add_backend_args(metrics)
    metrics.set_defaults(func=_cmd_metrics)

    health = sub.add_parser(
        "health",
        help="run a dataflow under SLO rules and print the health screen",
    )
    health.add_argument(
        "dataflow", nargs="?", default="osaka",
        help="'osaka' (Section 3 scenario), 'stations' (sharded "
             "per-station averages), or a canvas JSON path",
    )
    health.add_argument("--hours", type=float, default=15.0,
                        help="virtual hours to simulate (default 15)")
    health.add_argument("--sampling", type=float, default=0.0,
                        help="trace sampling rate in [0, 1] (default 0.0: "
                             "latency plane only, no span tracing)")
    health.add_argument("--slo", action="append", metavar="RULE",
                        help="an SLO rule 'metric OP threshold [over W]' "
                             "(repeatable; default: "
                             + "; ".join(DEFAULT_SLO_EXPRS) + ")")
    health.add_argument("--cadence", type=float, default=60.0, metavar="S",
                        help="alert evaluation cadence in virtual seconds "
                             "(default 60)")
    health.add_argument("--watch", action="store_true",
                        help="print the health screen every virtual hour "
                             "while running")
    health.add_argument("--json", action="store_true",
                        help="print the deterministic JSON health payload "
                             "instead of the screen")
    _add_run_args(health)
    _add_backend_args(health)
    health.set_defaults(func=_cmd_health)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StreamLoaderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
