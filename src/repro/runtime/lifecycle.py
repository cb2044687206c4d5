"""Deployment lifecycle: states and on-the-fly modification (demo P3).

P3: "we will show how the system react when sensors or operators in the
dataflow are modified on the fly".  Sensors joining/leaving is handled
automatically by the pub-sub layer (filters re-match on publish);
operator modification is implemented here: the spec of a *running* process
is swapped without tearing the deployment down, so the rest of the flow
keeps streaming throughout.
"""

from __future__ import annotations

from dataclasses import replace
from enum import Enum

from repro.dsn.ast import ServiceRole
from repro.dsn.check import check
from repro.errors import LifecycleError


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
    the operator logic changes.  The swapped-in spec replaces the service
    in ``deployment.program`` only once the program so modified passes
    the consistency check, so a modification that would break schema
    consistency is rejected *before* touching the runtime (the same
    only-sound-flows guarantee as at deploy time).

    Raises:
        LifecycleError: if the deployment is not running or the service is
            not a running operator.
        ValidationError: if the modified program would be inconsistent.
    """
    if deployment.state is not DeploymentState.RUNNING:
        raise LifecycleError(
            f"cannot modify deployment in state {deployment.state}"
        )
    if service_name not in deployment.processes:
        raise LifecycleError(f"no running service {service_name!r}")
    program = deployment.program
    service = program.service(service_name)
    if service.role is not ServiceRole.OPERATOR:
        raise LifecycleError(
            f"service {service_name!r} is not an operator in the flow"
        )
    params = new_spec.to_dict()
    swapped = replace(service, kind=params.pop("kind"), params=params)
    services = [swapped if s is service else s for s in program.services]
    registry = deployment.executor.broker_network.registry
    check(replace(program, services=services), registry).raise_if_invalid()
    program.services[:] = services

    process = deployment.processes[service_name]
    was_blocking = process.operator.is_blocking
    new_operator = new_spec.build_operator()
    # The service's counts outlive its logic: the rate, the load and the
    # metrics registry read this one stats object.
    new_operator.stats = process.operator.stats
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
