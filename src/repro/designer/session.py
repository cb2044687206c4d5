"""A designer session: the canvas plus everything around it.

Maps one-to-one onto the interactions of demo part P1:

- ``palette`` / ``discover(...)``: find the sensors available right now;
- ``add_source`` / ``add_operator`` / ``add_sink`` / ``connect`` /
  ``connect_control``: draw the dataflow;
- ``schema_pane(node)``: "the schema of data that are processed by the
  operation" (live, from the latest consistency check);
- ``issues()``: the canvas annotations of the consistency check;
- ``preview(...)``: step-by-step sample debugging;
- ``translate()``: the DSN program of a consistent canvas;
- ``deploy()``: hand the canvas to the executor and get a live handle.
"""

from __future__ import annotations

import json

from repro.errors import DataflowError
from repro.dataflow.graph import Dataflow, SinkKind
from repro.dataflow.ops import OperatorSpec
from repro.dataflow.serialize import dataflow_from_dict, dataflow_to_dict
from repro.designer.deploy import DeploymentHandle
from repro.designer.palette import Palette
from repro.designer.preview import (
    SampleResult, replay_samples, sample_from_sensors,
)
from repro.dsn.ast import DsnProgram
from repro.dsn.check import ValidationReport, check
from repro.dsn.generate import dataflow_to_dsn
from repro.network.qos import QosPolicy
from repro.pubsub.discovery import DiscoveryService
from repro.pubsub.registry import SensorMetadata
from repro.pubsub.subscription import SubscriptionFilter
from repro.runtime.executor import Executor


class DesignerSession:
    """One user's canvas bound to a live StreamLoader stack.

    >>> session = DesignerSession(executor, name="my-flow")  # doctest: +SKIP
    """

    def __init__(self, executor: Executor, name: str = "dataflow") -> None:
        self.executor = executor
        self.flow = Dataflow(name)
        self.palette = Palette(executor.broker_network.registry)
        self._report: "ValidationReport | None" = None

    # -- discovery (P1: identify available sensors) ---------------------------

    def discover(self, **criteria) -> list[SensorMetadata]:
        """Find sensors by type/theme/area/physical (see DiscoveryService)."""
        service = DiscoveryService(self.executor.broker_network.registry)
        return service.find(**criteria)

    # -- canvas editing -------------------------------------------------------

    def add_source(
        self,
        filter_: "SubscriptionFilter | str",
        node_id: str = "",
        initially_active: bool = True,
        label: str = "",
    ) -> str:
        """Drop a source on the canvas.

        ``filter_`` may be a filter object or a bare sensor id string.
        """
        if isinstance(filter_, str):
            filter_ = SubscriptionFilter.for_sensor(filter_)
        node = self.flow.add_source(
            filter_, node_id=node_id, initially_active=initially_active, label=label
        )
        self.validate()
        return node

    def add_operator(self, spec: OperatorSpec, node_id: str = "", label: str = "") -> str:
        node = self.flow.add_operator(spec, node_id=node_id, label=label)
        self.validate()
        return node

    def add_sink(
        self,
        sink_kind: str = SinkKind.COLLECTOR,
        config: "dict | None" = None,
        qos: "QosPolicy | None" = None,
        node_id: str = "",
        label: str = "",
    ) -> str:
        node = self.flow.add_sink(
            sink_kind=sink_kind, config=config, qos=qos, node_id=node_id, label=label
        )
        self.validate()
        return node

    def connect(self, source_id: str, target_id: str, port: int = 0) -> None:
        self.flow.connect(source_id, target_id, port)
        self.validate()

    def connect_control(self, trigger_id: str, source_id: str) -> None:
        self.flow.connect_control(trigger_id, source_id)
        self.validate()

    def remove_node(self, node_id: str) -> None:
        self.flow.remove_node(node_id)
        self.validate()

    # -- feedback panes ------------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check the lowered canvas; the report annotates canvas nodes."""
        registry = self.executor.broker_network.registry
        self._report = check(dataflow_to_dsn(self.flow, registry), registry)
        return self._report

    def issues(self) -> list[str]:
        report = self._report or self.validate()
        return [str(issue) for issue in report.issues]

    @property
    def is_consistent(self) -> bool:
        report = self._report or self.validate()
        return report.is_valid

    def schema_pane(self, node_id: str) -> str:
        """The bottom-pane schema display for one canvas node."""
        report = self._report or self.validate()
        if node_id not in self.flow:
            raise DataflowError(f"no node {node_id!r} on the canvas")
        schema = report.schemas.get(node_id)
        if schema is None:
            return "(schema unavailable: fix upstream issues first)"
        return schema.describe()

    def preview(
        self,
        sensors: "dict[str, object] | None" = None,
        samples: "dict | None" = None,
        count: int = 5,
        start: float = 0.0,
    ) -> SampleResult:
        """Step-by-step sample debugging (P1).

        Provide either ``sensors`` (source node id -> SimulatedSensor, the
        samples are probed) or ready-made ``samples`` batches, replayed
        on a throwaway deployment (:func:`.preview.replay_samples`).
        """
        if samples is None:
            if sensors is None:
                raise DataflowError("preview needs sensors or sample batches")
            samples = sample_from_sensors(self.flow, sensors, count=count, start=start)
        return replay_samples(
            self.flow, samples, self.executor.broker_network.registry,
            self.executor.netsim.topology,
        )

    def render(self, fmt: str = "ascii") -> str:
        """Draw the canvas: ``ascii`` for terminals, ``dot`` for Graphviz."""
        from repro.dataflow.render import render_ascii, to_dot

        if fmt == "ascii":
            return render_ascii(self.flow)
        if fmt == "dot":
            return to_dot(self.flow)
        raise DataflowError(f"unknown canvas format {fmt!r}; use ascii/dot")

    # -- persistence ---------------------------------------------------------------

    def save(self) -> str:
        """Serialize the canvas to its JSON document."""
        return json.dumps(dataflow_to_dict(self.flow), indent=2, sort_keys=True)

    def load(self, document: str) -> None:
        """Replace the canvas with a saved document."""
        self.flow = dataflow_from_dict(json.loads(document))
        self.validate()

    # -- translation & deployment (P2) ------------------------------------------------

    def translate(self) -> DsnProgram:
        """The DSN program of the (consistent) canvas.

        Raises :class:`repro.errors.ValidationError` otherwise — the
        translate button is greyed out until the canvas is consistent.
        """
        registry = self.executor.broker_network.registry
        program = dataflow_to_dsn(self.flow, registry)
        check(program, registry).raise_if_invalid()
        return program

    def deploy(self) -> DeploymentHandle:
        """Deploy the canvas; returns the live handle with annotations."""
        deployment = self.executor.deploy(self.flow)
        return DeploymentHandle(deployment=deployment, session=self)
