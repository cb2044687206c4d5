"""Canvas document (de)serialization.

The designer saves and loads dataflows as JSON documents; the same format
travels alongside the DSN program so a deployed flow can be re-opened on
the canvas.  Round-trip is exact.  Source schemas are not part of the
document: they belong to the live sensors, and the consistency check
reads them from the registry.
"""

from __future__ import annotations

from repro.errors import DataflowError
from repro.dataflow.graph import Dataflow
from repro.dataflow.ops import spec_from_dict
from repro.network.qos import QosPolicy
from repro.pubsub.subscription import SubscriptionFilter
from repro.stt.spatial import Box
from repro.stt.thematic import Theme


def _filter_to_dict(filter_: SubscriptionFilter) -> dict:
    data: dict = {}
    if filter_.sensor_ids:
        data["sensor_ids"] = list(filter_.sensor_ids)
    if filter_.sensor_type:
        data["sensor_type"] = filter_.sensor_type
    if filter_.theme is not None:
        data["theme"] = filter_.theme.path
    if filter_.area is not None:
        area = filter_.area
        data["area"] = [area.south, area.west, area.north, area.east]
    if filter_.min_frequency > 0.0:
        data["min_frequency"] = filter_.min_frequency
    if filter_.max_frequency != float("inf"):
        data["max_frequency"] = filter_.max_frequency
    return data


def _filter_from_dict(data: dict) -> SubscriptionFilter:
    kwargs: dict = {}
    if "sensor_ids" in data:
        kwargs["sensor_ids"] = tuple(data["sensor_ids"])
    if "sensor_type" in data:
        kwargs["sensor_type"] = data["sensor_type"]
    if "theme" in data:
        kwargs["theme"] = Theme(data["theme"])
    if "area" in data:
        south, west, north, east = data["area"]
        kwargs["area"] = Box(south=south, west=west, north=north, east=east)
    if "min_frequency" in data:
        kwargs["min_frequency"] = data["min_frequency"]
    if "max_frequency" in data:
        kwargs["max_frequency"] = data["max_frequency"]
    return SubscriptionFilter(**kwargs)


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


def dataflow_to_dict(flow: Dataflow) -> dict:
    """Serialize a canvas to a JSON-compatible dict."""
    return {
        "name": flow.name,
        "sources": [
            {
                "node_id": source.node_id,
                "filter": _filter_to_dict(source.filter),
                "initially_active": source.initially_active,
                "label": source.label,
            }
            for source in flow.sources.values()
        ],
        "operators": [
            {
                "node_id": node.node_id,
                "spec": node.spec.to_dict(),
                "label": node.label,
            }
            for node in flow.operators.values()
        ],
        "sinks": [
            {
                "node_id": sink.node_id,
                "sink_kind": sink.sink_kind,
                "config": dict(sink.config),
                "qos": _qos_to_dict(sink.qos),
                "label": sink.label,
            }
            for sink in flow.sinks.values()
        ],
        "data_edges": [
            {"source": edge.source_id, "target": edge.target_id, "port": edge.port}
            for edge in flow.data_edges
        ],
        "control_edges": [
            {"trigger": edge.trigger_id, "source": edge.source_id}
            for edge in flow.control_edges
        ],
    }


def dataflow_from_dict(data: dict) -> Dataflow:
    """Rebuild a canvas from :func:`dataflow_to_dict` output."""
    try:
        flow = Dataflow(data.get("name", "dataflow"))
        for source in data.get("sources", []):
            flow.add_source(
                _filter_from_dict(source["filter"]),
                node_id=source["node_id"],
                initially_active=source.get("initially_active", True),
                label=source.get("label", ""),
            )
        for node in data.get("operators", []):
            flow.add_operator(
                spec_from_dict(node["spec"]),
                node_id=node["node_id"],
                label=node.get("label", ""),
            )
        for sink in data.get("sinks", []):
            flow.add_sink(
                sink_kind=sink.get("sink_kind", "collector"),
                config=sink.get("config", {}),
                qos=_qos_from_dict(sink.get("qos", {})),
                node_id=sink["node_id"],
                label=sink.get("label", ""),
            )
        for edge in data.get("data_edges", []):
            flow.connect(edge["source"], edge["target"], edge.get("port", 0))
        for edge in data.get("control_edges", []):
            flow.connect_control(edge["trigger"], edge["source"])
    except KeyError as exc:
        raise DataflowError(f"malformed dataflow document: missing {exc}") from exc
    return flow
