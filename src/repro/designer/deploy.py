"""Live deployment handle: the canvas "becomes live".

"At the use phase, the dataflow developed at design time will be annotated
with information coming from the SCN about the execution of the dataflow.
In this way, the dataflow becomes 'live' and the domain expert can monitor
its execution."

The handle projects monitor data back onto canvas node ids, so a front end
can draw rates and placements on the same graph the user drew.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.dataflow.ops import OperatorSpec
from repro.runtime.lifecycle import replace_operator_live

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.designer.session import DesignerSession
    from repro.runtime.executor import Deployment


class DeploymentHandle:
    """Designer-facing view of one running deployment."""

    def __init__(self, deployment: "Deployment", session: "DesignerSession") -> None:
        self.deployment = deployment
        self.session = session

    @property
    def name(self) -> str:
        return self.deployment.name

    @property
    def state(self):
        return self.deployment.state

    # -- live annotations ------------------------------------------------------

    def annotations(self) -> dict[str, dict]:
        """Per-canvas-node live info: rate, node, counters.

        This is the data the designer overlays on the canvas (Figure 2's
        "live" mode and Figure 3's flow view).
        """
        monitor = self.deployment.executor.monitor
        result: dict[str, dict] = {}
        for service_name, process in self.deployment.processes.items():
            key = f"{self.deployment.name}/{process.process_id}"
            series = monitor.operation_rates.get(key)
            stats = process.operator.stats
            result[service_name] = {
                "node": process.node_id,
                "tuples_per_second": series.last if series else None,
                "tuples_in": stats.tuples_in,
                "tuples_out": stats.tuples_out,
                "errors": stats.errors,
                "controls_issued": stats.controls_issued,
            }
        for service_name, binding in self.deployment.bindings.items():
            delivered = sum(s.delivered for s in binding.subscriptions)
            suppressed = sum(s.suppressed for s in binding.subscriptions)
            active = any(s.active for s in binding.subscriptions)
            result[service_name] = {
                "sensors": sorted(binding.sensor_ids),
                "active": active,
                "delivered": delivered,
                "suppressed": suppressed,
            }
        return result

    def reassignments(self) -> list:
        """The execution log's ``reassigned`` records of this deployment's
        processes."""
        prefix = f"{self.deployment.name}:"
        return [
            record
            for record in self.deployment.executor.monitor.records("reassigned")
            if record.source.startswith(prefix)
        ]

    # -- control ---------------------------------------------------------------------

    def pause(self) -> None:
        self.deployment.pause()

    def resume(self) -> None:
        self.deployment.resume()

    def teardown(self) -> None:
        self.deployment.teardown()

    def replace_operator(self, service_name: str, new_spec: OperatorSpec) -> None:
        """Modify an operator on the fly (P3) — checked before applied."""
        replace_operator_live(self.deployment, service_name, new_spec)
