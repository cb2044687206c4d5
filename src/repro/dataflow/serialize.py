"""Canvas document (de)serialization.

The designer saves and loads its canvas, a :class:`~repro.dsn.ast.DsnProgram`,
as a JSON document; the same format travels alongside the DSN text so a
deployed flow can be re-opened on the canvas.  Round-trip is exact.
Source schemas are not part of the document: they belong to the live
sensors, and the consistency check reads them from the registry.
"""

from __future__ import annotations

from repro.errors import DataflowError
from repro.dataflow.ops import spec_from_dict
from repro.dsn.ast import DsnProgram, ServiceRole, filter_from_dict
from repro.network.qos import QosPolicy


def _qos_to_dict(qos: QosPolicy) -> dict:
    return {
        "qos_class": qos.qos_class.value,
        "segment_bytes": qos.segment_bytes,
        "priority": qos.priority,
        "max_latency": qos.max_latency if qos.max_latency != float("inf") else None,
    }


def _qos_from_dict(data: dict) -> QosPolicy:
    max_latency = data.get("max_latency")
    return QosPolicy(
        qos_class=data.get("qos_class", "best-effort"),
        segment_bytes=data.get("segment_bytes", 65536),
        priority=data.get("priority", 0),
        max_latency=float("inf") if max_latency is None else max_latency,
    )


def dataflow_to_dict(program: DsnProgram) -> dict:
    """Serialize a canvas to a JSON-compatible dict."""
    role = program.services_by_role
    return {
        "name": program.name,
        "sources": [
            {
                "node_id": source.name,
                "filter": dict(source.params.get("filter", {})),
                "initially_active": source.params.get("active", True),
            }
            for source in role(ServiceRole.SOURCE)
        ],
        "operators": [
            {"node_id": node.name, "spec": {"kind": node.kind, **node.params}}
            for node in role(ServiceRole.OPERATOR)
        ],
        "sinks": [
            {
                "node_id": sink.name,
                "sink_kind": sink.kind,
                "config": dict(sink.params.get("config", {})),
                "qos": _qos_to_dict(sink.qos or QosPolicy()),
            }
            for sink in role(ServiceRole.SINK)
        ],
        "data_edges": [
            {"source": edge.source, "target": edge.target, "port": edge.port}
            for edge in program.channels
        ],
        "control_edges": [
            {"trigger": edge.trigger, "source": edge.source}
            for edge in program.controls
        ],
    }


def dataflow_from_dict(data: dict) -> DsnProgram:
    """Rebuild a canvas from :func:`dataflow_to_dict` output (a node's
    ``label``, written by older versions, is ignored).  Raises
    :class:`DataflowError` on a malformed document."""
    try:
        flow = DsnProgram(data.get("name", "dataflow"))
        for source in data.get("sources", []):
            flow.add_source(
                filter_from_dict(source["filter"]),
                node_id=source["node_id"],
                initially_active=source.get("initially_active", True),
            )
        for node in data.get("operators", []):
            flow.add_operator(spec_from_dict(node["spec"]),
                              node_id=node["node_id"])
        for sink in data.get("sinks", []):
            flow.add_sink(
                sink_kind=sink.get("sink_kind", "collector"),
                config=sink.get("config", {}),
                qos=_qos_from_dict(sink.get("qos", {})),
                node_id=sink["node_id"],
            )
        for edge in data.get("data_edges", []):
            flow.connect(edge["source"], edge["target"], edge.get("port", 0))
        for edge in data.get("control_edges", []):
            flow.connect_control(edge["trigger"], edge["source"])
    except KeyError as exc:
        raise DataflowError(f"malformed dataflow document: missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DataflowError(f"malformed dataflow document: {exc}") from exc
    return flow
