"""Canvas renderings: Graphviz DOT and ASCII (the Figure 2 stand-ins).

The paper's canvas is a Cytoscape graph; these renderers produce the same
picture as data — DOT for real tooling, ASCII for terminals and tests.
Data edges are solid, trigger control edges dashed; nodes carry their
operator descriptions so the rendering *is* the dataflow, not a sketch.
"""

from __future__ import annotations

import networkx as nx

from repro.dsn.ast import DsnProgram, ServiceRole


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _dormant(service) -> bool:
    return not service.params.get("active", True)


def to_dot(flow: DsnProgram) -> str:
    """Graphviz DOT of the canvas.

    Sources are houses, operators boxes, sinks cylinders; control edges
    are dashed red.
    """
    lines = [f'digraph "{_dot_escape(flow.name)}" {{', "  rankdir=LR;"]
    for service in flow.services:
        node_id = service.name
        if service.role is ServiceRole.SOURCE:
            shape = "house"
            label = (node_id, "(dormant)") if _dormant(service) else (node_id,)
        elif service.role is ServiceRole.OPERATOR:
            shape, label = "box", (node_id, service.kind)
        else:
            shape, label = "cylinder", (node_id, f"[{service.kind}]")
        label = "\\n".join(map(_dot_escape, label))  # DOT's line break
        lines.append(f'  "{_dot_escape(node_id)}" [shape={shape}, '
                     f'label="{label}"];')
    for edge in flow.channels:
        port = f' [label="port {edge.port}"]' if edge.port else ""
        lines.append(
            f'  "{_dot_escape(edge.source)}" -> '
            f'"{_dot_escape(edge.target)}"{port};'
        )
    for edge in flow.controls:
        lines.append(
            f'  "{_dot_escape(edge.trigger)}" -> '
            f'"{_dot_escape(edge.source)}" '
            f"[style=dashed, color=red, label=\"control\"];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_ascii(flow: DsnProgram) -> str:
    """A terminal rendering: nodes in topological layers, edge list below.

    >>> from repro.pubsub.subscription import SubscriptionFilter
    >>> flow = DsnProgram("demo")
    >>> flow.connect(flow.add_source(SubscriptionFilter(sensor_type="rain")),
    ...              flow.add_sink("collector"))
    >>> print(render_ascii(flow))
    dataflow 'demo'
      layer 0: source-1 (src)
      layer 1: sink-2 <collector>
      data edges:
        source-1 --> sink-2
    """
    graph = flow.data_graph()
    try:
        order = list(nx.topological_sort(graph))
    except nx.NetworkXUnfeasible:
        order = list(graph)

    # Assign layers: sources at 0, each node one past its deepest input.
    layers: dict[str, int] = {}
    for node_id in order:
        inputs = flow.channels_into(node_id)
        if not inputs:
            layers[node_id] = 0
        else:
            layers[node_id] = 1 + max(
                layers.get(edge.source, 0) for edge in inputs
            )
    by_layer: dict[int, list[str]] = {}
    for node_id, layer in layers.items():
        by_layer.setdefault(layer, []).append(node_id)

    def decorate(node_id: str) -> str:
        service = flow.service(node_id)
        if service.role is ServiceRole.SOURCE:
            marker = "(src, dormant)" if _dormant(service) else "(src)"
            return f"{node_id} {marker}"
        if service.role is ServiceRole.OPERATOR:
            return f"{node_id} [{service.kind}]"
        return f"{node_id} <{service.kind}>"

    lines = [f"dataflow {flow.name!r}"]
    for layer in sorted(by_layer):
        entries = "   ".join(decorate(n) for n in sorted(by_layer[layer]))
        lines.append(f"  layer {layer}: {entries}")
    if flow.channels:
        lines.append("  data edges:")
        for edge in flow.channels:
            port = f" (port {edge.port})" if edge.port else ""
            lines.append(f"    {edge.source} --> {edge.target}{port}")
    if flow.controls:
        lines.append("  control edges:")
        for edge in flow.controls:
            lines.append(f"    {edge.trigger} ~~> {edge.source}")
    return "\n".join(lines)
