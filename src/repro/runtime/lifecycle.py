"""Deployment lifecycle: states and on-the-fly modification (demo P3).

P3: "we will show how the system react when sensors or operators in the
dataflow are modified on the fly".  Sensors joining/leaving is handled
automatically by the pub-sub layer (filters re-match on publish);
operator modification is implemented here: the spec of a *running* process
is swapped without tearing the deployment down, so the rest of the flow
keeps streaming throughout.
"""

from __future__ import annotations

from enum import Enum

from repro.errors import LifecycleError, ValidationError


class DeploymentState(Enum):
    DESIGNED = "designed"
    RUNNING = "running"
    #: Still streaming, but a source's live sensor set fell below quorum;
    #: recovers to RUNNING automatically when sensors republish.
    DEGRADED = "degraded"
    PAUSED = "paused"
    STOPPED = "stopped"


def replace_operator_live(deployment, service_name: str, new_spec) -> None:
    """Swap a running operator's specification in place.

    The process keeps its identity, node, routes, and subscriptions; only
    the operator logic changes.  The swapped-in spec is validated against
    the deployment's conceptual dataflow first, so a modification that
    would break schema consistency is rejected *before* touching the
    runtime (the same only-sound-flows guarantee as at design time).

    Raises:
        LifecycleError: if the deployment is not running or the service is
            unknown.
        ValidationError: if the modified dataflow would be inconsistent.
    """
    from repro.dataflow.validate import validate_dataflow

    if deployment.state is not DeploymentState.RUNNING:
        raise LifecycleError(
            f"cannot modify deployment in state {deployment.state}"
        )
    if service_name not in deployment.processes:
        raise LifecycleError(f"no running service {service_name!r}")

    # Validate against the conceptual dataflow when we have it.
    if deployment.flow is not None:
        if service_name not in deployment.flow.operators:
            raise LifecycleError(
                f"service {service_name!r} is not an operator in the flow"
            )
        old_spec = deployment.flow.operators[service_name].spec
        deployment.flow.replace_operator(service_name, new_spec)
        report = validate_dataflow(
            deployment.flow, deployment.executor.broker_network.registry
        )
        if not report.is_valid:
            deployment.flow.replace_operator(service_name, old_spec)
            raise ValidationError(report.errors)

    process = deployment.processes[service_name]
    was_blocking = process.operator.is_blocking
    new_operator = new_spec.build_operator()
    if new_spec.kind in ("trigger-on", "trigger-off"):
        new_operator.control = deployment.apply_control

    # Swap: stop any flush timer, replace logic, re-arm.
    if process._timer_cancel is not None:
        process._timer_cancel()
        process._timer_cancel = None
    process.operator = new_operator
    if new_operator.is_blocking:
        assert new_operator.interval is not None
        process._timer_cancel = process.netsim.clock.schedule_periodic(
            new_operator.interval, process._fire_timer
        )
    deployment.executor.monitor.log(
        deployment.name,
        "operator-replaced",
        f"{service_name}: now {new_operator.describe()}"
        + (" (blocking->non-blocking)" if was_blocking and not new_operator.is_blocking else ""),
    )
