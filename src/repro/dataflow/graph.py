"""The conceptual dataflow graph (the designer's canvas document).

Three node kinds mirror the canvas palette: sources (bound to published
sensors through a subscription filter), operators (Table 1 specs), and
sinks (warehouse / visualization / collector).  Edges are either *data*
edges (stream flow, into a numbered input port) or *control* edges (a
trigger governing the activation of a source).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import networkx as nx

from repro.errors import DataflowError, PortError
from repro.dataflow.ops import OperatorSpec
from repro.network.qos import QosPolicy
from repro.pubsub.subscription import SubscriptionFilter


class SinkKind:
    """Sink destinations the paper names (P2)."""

    WAREHOUSE = "warehouse"
    VISUALIZATION = "visualization"
    COLLECTOR = "collector"

    ALL = (WAREHOUSE, VISUALIZATION, COLLECTOR)


@dataclass
class SourceNode:
    """A canvas source: which sensor stream(s) feed this input.

    Its schema is the one the matched sensors advertise, read from the
    registry by the consistency check.  ``initially_active`` is False for
    trigger-gated sources — the Osaka rain/tweets/traffic streams start
    dormant until Trigger On fires.
    """

    node_id: str
    filter: SubscriptionFilter
    initially_active: bool = True
    label: str = ""


@dataclass
class OperatorNode:
    """A canvas operator carrying its declarative specification."""

    node_id: str
    spec: OperatorSpec
    label: str = ""


@dataclass
class SinkNode:
    """A canvas sink: where the processed stream lands."""

    node_id: str
    sink_kind: str = SinkKind.COLLECTOR
    config: dict = field(default_factory=dict)
    qos: QosPolicy = field(default_factory=QosPolicy)
    label: str = ""

    def __post_init__(self) -> None:
        if self.sink_kind not in SinkKind.ALL:
            raise DataflowError(
                f"unknown sink kind {self.sink_kind!r}; known: {SinkKind.ALL}"
            )


@dataclass(frozen=True)
class DataEdge:
    """Stream flow from a node's output into an operator/sink input port."""

    source_id: str
    target_id: str
    port: int = 0


@dataclass(frozen=True)
class ControlEdge:
    """A trigger node governing a source node's activation."""

    trigger_id: str
    source_id: str


class Dataflow:
    """The canvas document: nodes plus data and control edges.

    >>> flow = Dataflow("demo")
    >>> src = flow.add_source(SubscriptionFilter(sensor_type="temperature"))
    >>> op = flow.add_operator(FilterSpec("temperature > 24"))  # doctest: +SKIP
    >>> flow.connect(src, op)                                   # doctest: +SKIP
    """

    def __init__(self, name: str = "dataflow") -> None:
        self.name = name
        self.sources: dict[str, SourceNode] = {}
        self.operators: dict[str, OperatorNode] = {}
        self.sinks: dict[str, SinkNode] = {}
        self.data_edges: list[DataEdge] = []
        self.control_edges: list[ControlEdge] = []
        self._ids = itertools.count(1)

    # -- node management ------------------------------------------------------

    def _new_id(self, prefix: str) -> str:
        while True:
            node_id = f"{prefix}-{next(self._ids)}"
            if node_id not in self:
                return node_id

    def add_source(
        self,
        filter_: SubscriptionFilter,
        node_id: str = "",
        initially_active: bool = True,
        label: str = "",
    ) -> str:
        node_id = node_id or self._new_id("source")
        self._check_new_id(node_id)
        self.sources[node_id] = SourceNode(
            node_id=node_id,
            filter=filter_,
            initially_active=initially_active,
            label=label,
        )
        return node_id

    def add_operator(
        self, spec: OperatorSpec, node_id: str = "", label: str = ""
    ) -> str:
        node_id = node_id or self._new_id(spec.kind)
        self._check_new_id(node_id)
        self.operators[node_id] = OperatorNode(node_id=node_id, spec=spec, label=label)
        return node_id

    def add_sink(
        self,
        sink_kind: str = SinkKind.COLLECTOR,
        config: "dict | None" = None,
        qos: "QosPolicy | None" = None,
        node_id: str = "",
        label: str = "",
    ) -> str:
        node_id = node_id or self._new_id("sink")
        self._check_new_id(node_id)
        self.sinks[node_id] = SinkNode(
            node_id=node_id,
            sink_kind=sink_kind,
            config=dict(config or {}),
            qos=qos or QosPolicy(),
            label=label,
        )
        return node_id

    def remove_node(self, node_id: str) -> None:
        """Remove a node and every edge touching it (P3: on-the-fly edits)."""
        if node_id not in self:
            raise DataflowError(f"no node {node_id!r} in dataflow {self.name!r}")
        self.sources.pop(node_id, None)
        self.operators.pop(node_id, None)
        self.sinks.pop(node_id, None)
        self.data_edges = [
            edge
            for edge in self.data_edges
            if node_id not in (edge.source_id, edge.target_id)
        ]
        self.control_edges = [
            edge
            for edge in self.control_edges
            if node_id not in (edge.trigger_id, edge.source_id)
        ]

    def replace_operator(self, node_id: str, spec: OperatorSpec) -> None:
        """Swap an operator's spec in place, keeping its edges (P3)."""
        node = self.operators.get(node_id)
        if node is None:
            raise DataflowError(f"no operator node {node_id!r}")
        old = node.spec
        if old.input_count != spec.input_count:
            raise DataflowError(
                f"replacement for {node_id!r} must keep {old.input_count} "
                f"input port(s), new spec has {spec.input_count}"
            )
        node.spec = spec

    def _check_new_id(self, node_id: str) -> None:
        if node_id in self:
            raise DataflowError(f"node id {node_id!r} already used")

    # -- edges ---------------------------------------------------------------

    def connect(self, source_id: str, target_id: str, port: int = 0) -> None:
        """Draw a data edge: source_id's output into target_id's port."""
        out_node = self._node(source_id)
        in_node = self._node(target_id)
        if isinstance(out_node, SinkNode):
            raise PortError(f"sink {source_id!r} has no output to connect")
        if isinstance(out_node, OperatorNode) and not out_node.spec.has_output:
            raise PortError(
                f"{out_node.spec.kind} {source_id!r} is control-only; "
                f"it has no data output"
            )
        if isinstance(in_node, SourceNode):
            raise PortError(f"source {target_id!r} cannot receive a data edge")
        max_ports = (
            in_node.spec.input_count if isinstance(in_node, OperatorNode) else 1
        )
        if not (0 <= port < max_ports):
            raise PortError(
                f"{target_id!r} has ports 0..{max_ports - 1}, got {port}"
            )
        for edge in self.data_edges:
            if edge.target_id == target_id and edge.port == port:
                raise PortError(
                    f"port {port} of {target_id!r} is already connected "
                    f"(from {edge.source_id!r})"
                )
        self.data_edges.append(DataEdge(source_id, target_id, port))

    def connect_control(self, trigger_id: str, source_id: str) -> None:
        """Draw a control edge from a trigger to a source it governs."""
        trigger = self.operators.get(trigger_id)
        if trigger is None or trigger.spec.kind not in ("trigger-on", "trigger-off"):
            raise PortError(f"{trigger_id!r} is not a trigger node")
        if source_id not in self.sources:
            raise PortError(f"control edges must target sources, not {source_id!r}")
        edge = ControlEdge(trigger_id, source_id)
        if edge in self.control_edges:
            raise PortError(f"control edge {trigger_id!r}->{source_id!r} exists")
        self.control_edges.append(edge)

    def disconnect(self, source_id: str, target_id: str, port: int = 0) -> None:
        edge = DataEdge(source_id, target_id, port)
        try:
            self.data_edges.remove(edge)
        except ValueError:
            raise DataflowError(f"no data edge {source_id!r}->{target_id!r}") from None

    # -- introspection ---------------------------------------------------------

    def _node(self, node_id: str):
        for table in (self.sources, self.operators, self.sinks):
            if node_id in table:
                return table[node_id]
        raise DataflowError(f"no node {node_id!r} in dataflow {self.name!r}")

    def node(self, node_id: str):
        return self._node(node_id)

    def __contains__(self, node_id: object) -> bool:
        return (
            node_id in self.sources
            or node_id in self.operators
            or node_id in self.sinks
        )

    @property
    def node_ids(self) -> list[str]:
        return list(self.sources) + list(self.operators) + list(self.sinks)

    def inputs_of(self, node_id: str) -> list[DataEdge]:
        """Incoming data edges, sorted by port."""
        return sorted(
            (edge for edge in self.data_edges if edge.target_id == node_id),
            key=lambda edge: edge.port,
        )

    def outputs_of(self, node_id: str) -> list[DataEdge]:
        return [edge for edge in self.data_edges if edge.source_id == node_id]

    def controlled_sources(self, trigger_id: str) -> list[str]:
        return [
            edge.source_id
            for edge in self.control_edges
            if edge.trigger_id == trigger_id
        ]

    def data_graph(self) -> nx.DiGraph:
        graph = nx.DiGraph()
        graph.add_nodes_from(self.node_ids)
        for edge in self.data_edges:
            graph.add_edge(edge.source_id, edge.target_id, port=edge.port)
        return graph

    def topological_order(self) -> list[str]:
        """Node ids in data-edge topological order.

        Raises :class:`DataflowError` on cycles — callers that want a
        diagnostic list use the consistency check instead.
        """
        graph = self.data_graph()
        try:
            return list(nx.topological_sort(graph))
        except nx.NetworkXUnfeasible:
            raise DataflowError(
                f"dataflow {self.name!r} contains a cycle"
            ) from None
