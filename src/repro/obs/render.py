"""Rendering: trace trees and lineage explanations for the CLI.

A trace tree shows one tuple's journey hop by hop with per-hop
virtual-clock durations::

    trace 17 · 2.41s · rain-osaka-2#41 -> sink
    publish rain-osaka-2 [t=46800.0]
    └─ transmit edge-2 -> edge-0 (1.20s)
       └─ evaluate torrential on edge-0 (0.00s)
          └─ transmit edge-0 -> edge-1 (1.21s)
             └─ sink warehouse:... on edge-1 (0.00s)
"""

from __future__ import annotations

from repro.obs.lineage import LineageStore
from repro.obs.trace import Span, Tracer


def format_duration(seconds: float) -> str:
    """Adaptive duration: seconds down to 10ms, milliseconds below."""
    if seconds >= 0.01:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000.0:.2f}ms"


def _span_label(span: Span) -> str:
    attrs = span.attrs
    if span.name == "transmit":
        where = f"{attrs.get('from', '?')} -> {attrs.get('to', '?')}"
    elif "node" in attrs:
        what = attrs.get("operator") or attrs.get("source") or ""
        where = f"{what} on {attrs['node']}" if what else str(attrs["node"])
    else:
        where = str(attrs.get("source", "")) or str(attrs.get("service", ""))
    suffix = f" ({format_duration(span.duration)})" if span.parent_id is not None \
        else f" [t={span.start:.1f}]"
    extra = ""
    if "attempt" in attrs and attrs["attempt"]:
        extra = f" attempt={attrs['attempt']}"
    if "reason" in attrs:
        extra += f" reason={attrs['reason']}"
    return f"{span.name} {where}{extra}{suffix}".replace("  ", " ")


def render_trace_tree(spans: list[Span]) -> str:
    """ASCII tree of one trace's spans (parent/child by span ids)."""
    if not spans:
        return "(empty trace)"
    children: dict[int | None, list[Span]] = {}
    ids = {span.span_id for span in spans}
    for span in spans:
        # A span whose parent was recorded in another trace (shouldn't
        # happen, but be safe) renders as a root.
        parent = span.parent_id if span.parent_id in ids else None
        children.setdefault(parent, []).append(span)
    lines: list[str] = []

    def walk(span: Span, prefix: str, is_last: bool, is_root: bool) -> None:
        if is_root:
            lines.append(_span_label(span))
            child_prefix = ""
        else:
            branch = "└─ " if is_last else "├─ "
            lines.append(prefix + branch + _span_label(span))
            child_prefix = prefix + ("   " if is_last else "│  ")
        kids = sorted(children.get(span.span_id, ()),
                      key=lambda s: (s.start, s.span_id))
        for i, kid in enumerate(kids):
            walk(kid, child_prefix, i == len(kids) - 1, False)

    roots = sorted(children.get(None, ()), key=lambda s: (s.start, s.span_id))
    for i, root in enumerate(roots):
        walk(root, "", i == len(roots) - 1, True)
    return "\n".join(lines)


def sink_trace_ids(tracer: Tracer) -> list[int]:
    """Ids of retained traces whose tuple reached a sink span."""
    out = []
    for trace_id in tracer.trace_ids():
        if any(span.name == "sink" for span in tracer.trace(trace_id)):
            out.append(trace_id)
    return out


def slowest_sink_traces(tracer: Tracer, n: int = 1) -> list[int]:
    """The n sink-reaching traces with the largest virtual-clock extent."""
    ranked = sorted(
        sink_trace_ids(tracer),
        key=lambda tid: (-tracer.duration(tid), tid),
    )
    return ranked[: max(0, n)]


def trace_for_tuple(tracer: Tracer, tuple_id: str) -> "int | None":
    """The trace that recorded a span for the given ``source#seq`` key."""
    for trace_id in tracer.trace_ids():
        for span in tracer.trace(trace_id):
            if span.attrs.get("tuple") == tuple_id:
                return trace_id
    return None


def sink_tuple_of(spans: list[Span]) -> "str | None":
    """The tuple key that reached the sink in this trace, if any."""
    for span in spans:
        if span.name == "sink":
            key = span.attrs.get("tuple")
            return str(key) if key is not None else None
    return None


def render_trace(tracer: Tracer, trace_id: int,
                 lineage: "LineageStore | None" = None) -> str:
    """Full CLI block for one trace: header, tree, lineage resolution."""
    spans = tracer.trace(trace_id)
    sink_key = sink_tuple_of(spans)
    header = f"trace {trace_id} · {format_duration(tracer.duration(trace_id))}"
    if sink_key:
        header += f" · {sink_key} -> sink"
    lines = [header, render_trace_tree(spans)]
    if lineage is not None and sink_key is not None:
        sources = lineage.explain(sink_key)
        lines.append(
            "lineage: " + (", ".join(sources) if sources else "(unknown)")
        )
    return "\n".join(lines)


def _health_number(value: "float | None", suffix: str = "s") -> str:
    return "cold" if value is None else f"{value:.1f}{suffix}"


def render_health(engine, records) -> str:
    """The ``repro health`` screen: one AlertEngine's last tick snapshot.

    Shows the logical (shard-invariant) per-service watermark view, the
    backpressure columns, the rules with their latest readings, and the
    recent fire/resolve history, read from the execution log ``records``.
    Renders a placeholder until the first tick has run.
    """
    snapshot = engine.snapshot
    if snapshot is None:
        return "(no health snapshot yet: the alert engine has not ticked)"
    lines = [
        f"== health @ t={snapshot['time']:.0f}s ==",
        f"source high-water: {_health_number(snapshot['source_high'])}",
        "-- services (watermark / lag / queue / saturation) --",
    ]
    for name, info in snapshot["services"].items():
        lines.append(
            f"  {name:36s} {_health_number(info['watermark']):>12s} "
            f"{_health_number(info['lag']):>10s} "
            f"{info['queue_depth']:6d} {info['saturation']:6.2f}"
        )
    lines.append("-- objectives --")
    for name, rule in sorted(engine.rules.items()):
        value = snapshot["values"].get(name)
        state = "FIRING" if name in snapshot["firing"] else "ok"
        lines.append(
            f"  {name:36s} {rule.describe():32s} "
            f"now={_health_number(value, '')} [{state}]"
        )
    transitions = engine.transitions(records)
    if transitions:
        lines.append("-- transitions --")
        for time, event, rule, value in transitions[-8:]:
            lines.append(
                f"  t={time:.0f}: {event:7s} {rule} "
                f"(value={_health_number(value, '')})"
            )
    return "\n".join(lines)
