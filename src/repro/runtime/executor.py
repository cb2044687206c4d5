"""The executor: deploy DSN programs and coordinate their processes.

Deployment pipeline (Section 3 / demo part P2):

1. translate the conceptual dataflow (or accept a DSN program), run the
   one consistency check (:func:`repro.dsn.check.check`) on the program,
   and refuse a sink or SLO clause this executor cannot host: a rejected
   program leaves nothing behind;
2. SCN service discovery: bind source services to published sensors;
3. estimate per-service load and ask the SCN for a placement;
4. build the physical plan (:mod:`repro.runtime.plan`): one unit per
   process (operation, sink, fused chain, shard or shard merge) with its
   placement, and one edge per process route or source binding;
5. QoS admission on the sink channels, against the plan's placements;
6. instantiate the plan: spawn each unit's :class:`OperatorProcess` on
   its node, then add each edge's route or source subscription, in order;
7. wire trigger control: commands pause/resume the governed sources'
   subscriptions — suppressing traffic at the source;
8. start timers, register with the monitor, begin periodic rebalancing.

The same executor hosts many deployments ("this and other dataflows that
are under control", Figure 3).

Fault tolerance: the monitor's heartbeat failure detector calls back into
the executor when a node dies; the executor re-places the affected
processes on surviving nodes through the SCN placement path, restores each
blocking operator's last checkpoint, and logs the assignment change.  A
deployment whose source set shrinks below quorum degrades (state
``DEGRADED``) instead of erroring, and recovers when sensors republish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.errors import DeploymentError, LifecycleError, PlacementError
from repro.dataflow.graph import Dataflow
from repro.dsn.ast import DsnProgram, ServiceRole
from repro.dsn.check import check
from repro.dsn.generate import dataflow_to_dsn
from repro.dsn.scn import PlacementDecision, ScnController, _filter_from_params
from repro.network.netsim import NetworkSimulator
from repro.pubsub.broker import BrokerNetwork
from repro.pubsub.registry import SensorMetadata
from repro.pubsub.subscription import Subscription, SubscriptionFilter
from repro.runtime.backends.base import ExecutionBackend
from repro.runtime.backends.sim import SimBackend
from repro.runtime.lifecycle import DeploymentState
from repro.runtime.monitor import Monitor
from repro.runtime.plan import (
    CHAIN, MERGE, SHARD, Edge, PhysicalPlan, ShardPlan, Unit, build_plan,
    estimate_demands,
)
from repro.runtime.process import OperatorProcess
from repro.runtime.sharding import ShardGroup
from repro.streams.base import ControlCommand
from repro.streams.fused import FusedOperator
from repro.streams.shard import (
    ShardAssignment, ShardedOperatorAdapter, ShardMergeOperator,
)
from repro.streams.sink import CallbackSink, ListSink
from repro.streams.tuple import SensorTuple

@dataclass
class _SourceBinding:
    """A deployed source service: its sensors and subscriptions."""

    service_name: str
    sensors: list[SensorMetadata]
    #: The source's discovery filter (re-matched as sensors come and go).
    filter: SubscriptionFilter
    #: Sensors matched at deploy time — the quorum reference point.
    initial_count: int
    subscriptions: list[Subscription] = field(default_factory=list)

    @property
    def sensor_ids(self) -> set[str]:
        return {metadata.sensor_id for metadata in self.sensors}


class Deployment:
    """A running dataflow: its plan, processes, bindings and state."""

    def __init__(
        self,
        name: str,
        program: DsnProgram,
        executor: "Executor",
        plan: PhysicalPlan,
    ) -> None:
        self.name = name
        self.program = program
        self.executor = executor
        #: The physical plan this deployment instantiates.
        self.plan = plan
        #: unit key -> its process, in spawn order.
        self.processes: dict[str, OperatorProcess] = {}
        #: conceptual service name -> its shard group (sharded blocking
        #: operators only); the members and merge stage are units of the
        #: plan and appear in :attr:`processes` too.
        self.shard_groups: dict[str, ShardGroup] = {}
        self.bindings: dict[str, _SourceBinding] = {}
        self.collectors: dict[str, ListSink] = {}
        #: conceptual service name -> its elastic-sharding control loop
        #: (only services deployed with ``shard ... elastic``).
        self.rebalancers: dict[str, object] = {}
        self.state = DeploymentState.DESIGNED
        self._rebalance_cancel: "Callable[[], None] | None" = None

    # -- accessors ----------------------------------------------------------

    @property
    def placements(self) -> dict[str, PlacementDecision]:
        """Where each source, service and unit runs, read off the plan (a
        fused member or a sharded service reads the unit its output
        leaves from)."""
        return self.plan.placements()

    def process(self, service_name: str) -> OperatorProcess:
        """The process hosting a service or unit (a fused member resolves
        to the chain's shared process; a sharded service has none)."""
        if service_name not in self.plan.groups:
            key = self.plan.exits.get(service_name, service_name)
            if key in self.processes:
                return self.processes[key]
        raise DeploymentError(
            f"no process for service {service_name!r} in {self.name!r}"
        )

    def collected(self, sink_name: str) -> list[SensorTuple]:
        """Tuples received by a collector sink."""
        try:
            return self.collectors[sink_name].received
        except KeyError:
            raise DeploymentError(
                f"{sink_name!r} is not a collector sink of {self.name!r}"
            ) from None

    def assignments(self) -> dict[str, str]:
        return {name: process.node_id for name, process in self.processes.items()}

    # -- control ------------------------------------------------------------------

    def update_source_health(self) -> None:
        """Re-evaluate source quorum; degrade or recover accordingly.

        Called by the executor whenever a sensor joins or leaves the
        network.  Each binding re-matches its discovery filter against the
        live registry; when any source's sensor set shrinks below the
        executor's quorum fraction of what deployment-time discovery
        found, the flow degrades (it keeps streaming whatever remains)
        and automatically recovers once sensors republish.
        """
        if self.state not in (DeploymentState.RUNNING, DeploymentState.DEGRADED):
            return
        registry = self.executor.broker_network.registry
        starved: list[str] = []
        for binding in self.bindings.values():
            binding.sensors = sorted(
                (m for m in registry.all() if binding.filter.matches(m)),
                key=lambda m: m.sensor_id,
            )
            if len(binding.sensors) < self.executor.source_quorum_of(
                binding.initial_count
            ):
                starved.append(binding.service_name)
        if starved and self.state is DeploymentState.RUNNING:
            self.state = DeploymentState.DEGRADED
            self.executor.monitor.log(
                self.name,
                "degraded",
                f"source(s) below quorum: {', '.join(sorted(starved))}",
            )
        elif not starved and self.state is DeploymentState.DEGRADED:
            self.state = DeploymentState.RUNNING
            self.executor.monitor.log(self.name, "recovered", "sources back above quorum")

    def pause(self) -> None:
        """Suspend acquisition (subscriptions stop producing traffic)."""
        if self.state is not DeploymentState.RUNNING:
            raise LifecycleError(f"cannot pause deployment in state {self.state}")
        for binding in self.bindings.values():
            for subscription in binding.subscriptions:
                subscription.pause()
        self.state = DeploymentState.PAUSED

    def resume(self) -> None:
        if self.state is not DeploymentState.PAUSED:
            raise LifecycleError(f"cannot resume deployment in state {self.state}")
        for binding in self.bindings.values():
            for subscription in binding.subscriptions:
                subscription.resume()
        self.state = DeploymentState.RUNNING

    def teardown(self) -> None:
        """Stop everything and release network resources."""
        if self.state is DeploymentState.STOPPED:
            return
        if self._rebalance_cancel is not None:
            self._rebalance_cancel()
            self._rebalance_cancel = None
        for rebalancer in self.rebalancers.values():
            rebalancer.stop()
        for binding in self.bindings.values():
            for subscription in binding.subscriptions:
                self.executor.broker_network.unsubscribe(subscription)
            binding.subscriptions.clear()
        for process in self.processes.values():
            process.stop()
        # A stopped process's frozen watermark would hold every lag
        # objective in breach: its probe and this flow's rules go.
        executor = self.executor
        plane = executor.obs.latency if executor.obs is not None else None
        if plane is not None:
            plane.unregister(p.process_id for p in self.processes.values())
        if executor.alerts is not None:
            for rule in _slo_rules(self.program):
                executor.alerts.remove_rule(rule.name)
        executor.monitor.unwatch(self.name)
        self.state = DeploymentState.STOPPED

    def apply_control(self, command: ControlCommand) -> int:
        """Actuate a trigger command: toggle governed subscriptions.

        Returns the number of subscriptions toggled.  The command's sensor
        ids select which governed sources are affected; a command naming no
        sensor bound to this deployment toggles nothing.
        """
        self.executor.monitor.log(
            self.name,
            "activate" if command.activate else "deactivate",
            f"{', '.join(command.sensor_ids)} ({command.reason})",
            command=command,
        )
        targets = set(command.sensor_ids)
        toggled = 0
        governed = {
            control.source for control in self.program.controls
        }
        for service_name in governed:
            binding = self.bindings.get(service_name)
            if binding is None:
                continue
            if targets and not (targets & binding.sensor_ids):
                continue
            for subscription in binding.subscriptions:
                if command.activate:
                    subscription.resume()
                else:
                    subscription.pause()
                toggled += 1
        return toggled


def _slo_rules(program):
    """The alert rule each of ``program``'s ``slo`` clauses declares."""
    from repro.obs.alerts import AlertRule

    return [
        AlertRule(
            name=f"slo:{slo.flow}:{slo.metric}",
            metric=slo.metric,
            op=slo.op,
            threshold=slo.threshold,
            window=slo.window,
            scope=slo.flow,
        )
        for slo in program.slos
    ]


def _spec(service):
    """The operator specification a DSN operator service declares."""
    from repro.dataflow.ops import spec_from_dict

    return spec_from_dict({"kind": service.kind, **service.params})


class Executor:
    """Coordinates deployments over one network + pub-sub + SCN stack."""

    def __init__(
        self,
        netsim: NetworkSimulator,
        broker_network: BrokerNetwork,
        scn: "ScnController | None" = None,
        monitor: "Monitor | None" = None,
        warehouse: "object | None" = None,
        sticker: "object | None" = None,
        rebalance_interval: float = 300.0,
        checkpoint_interval: float = 60.0,
        source_quorum: float = 0.5,
        obs: "object | None" = None,
        rebalance_config: "object | None" = None,
        alert_cadence: float = 60.0,
        backend: "ExecutionBackend | None" = None,
    ) -> None:
        if not (0.0 < source_quorum <= 1.0):
            raise DeploymentError(
                f"source_quorum must be in (0, 1]: {source_quorum}"
            )
        self.netsim = netsim
        #: Execution backend the deployed processes run on.  Defaults to
        #: wrapping ``netsim`` in a SimBackend, which changes nothing —
        #: the simulator executes processes inline in delivery callbacks.
        if backend is None:
            backend = SimBackend(netsim)
        self.backend = backend
        self.broker_network = broker_network
        #: Observability bundle (``repro.obs.Observability``); threads
        #: through the monitor, every spawned process, the SCN's placement
        #: events, and the blocking operators' lineage recorders.
        self.obs = obs
        self.scn = scn or ScnController(netsim.topology)
        self.monitor = monitor or Monitor(netsim, obs=obs)
        if obs is not None:
            obs.tracer.bind_clock(netsim.clock)
            if netsim.tracer is None:
                netsim.tracer = obs.tracer
            if broker_network.obs is None:
                broker_network.obs = obs
        self.warehouse = warehouse
        self.sticker = sticker
        self.rebalance_interval = rebalance_interval
        #: Knobs for the elastic key-level control loop (``shard ...
        #: elastic`` services); node-level coordination rounds above keep
        #: their own ``rebalance_interval``.
        from repro.runtime.rebalance import RebalanceConfig

        self.rebalance_config = rebalance_config or RebalanceConfig()
        #: Blocking-operator snapshot cadence (seconds of virtual time).
        self.checkpoint_interval = checkpoint_interval
        #: Fraction of deploy-time sensors a source must keep to stay healthy.
        self.source_quorum = source_quorum
        #: Virtual-time cadence of the alert engine's evaluation ticks.
        self.alert_cadence = alert_cadence
        #: The deterministic alerting engine, created lazily by the first
        #: deployment that declares SLO clauses (``slo "..." ...;``).
        self.alerts = None
        self.deployments: dict[str, Deployment] = {}
        self.monitor.on_node_dead.append(self._handle_node_death)
        self._chain_broker_hooks()
        self.monitor.start()

    def _chain_broker_hooks(self) -> None:
        """Observe sensor churn and dead letters without displacing other
        listeners already attached to the broker network."""
        previous_pub = self.broker_network.on_sensor_published
        previous_unpub = self.broker_network.on_sensor_unpublished
        previous_dead = self.broker_network.on_dead_letter

        def on_published(metadata) -> None:
            if previous_pub is not None:
                previous_pub(metadata)
            self._on_sensor_churn()

        def on_unpublished(metadata) -> None:
            if previous_unpub is not None:
                previous_unpub(metadata)
            self._on_sensor_churn()

        def on_dead_letter(subscription, tuple_, reason) -> None:
            if previous_dead is not None:
                previous_dead(subscription, tuple_, reason)
            self.monitor.log(
                f"subscription-{subscription.subscription_id}",
                "dead-letter",
                f"{tuple_.source} undeliverable to {subscription.node_id}: "
                f"{reason}",
                subscription=subscription.subscription_id,
                node=subscription.node_id,
                source=tuple_.source,
                reason=reason,
            )

        self.broker_network.on_sensor_published = on_published
        self.broker_network.on_sensor_unpublished = on_unpublished
        self.broker_network.on_dead_letter = on_dead_letter

    def _on_sensor_churn(self) -> None:
        for deployment in self.deployments.values():
            deployment.update_source_health()

    def source_quorum_of(self, initial_count: int) -> int:
        """Minimum live sensors a source binding needs to stay healthy."""
        if initial_count <= 0:
            return 0
        return max(1, math.ceil(self.source_quorum * initial_count))

    # -- deployment --------------------------------------------------------------

    def deploy(
        self,
        flow_or_program: "Dataflow | DsnProgram",
        shards: "int | dict[str, int] | None" = None,
        elastic: bool = False,
    ) -> Deployment:
        """Translate (if needed), check, place, spawn, wire, and start a
        dataflow.  The check runs once, before anything is placed: an
        unsound program raises :class:`repro.errors.ValidationError`, one
        this executor cannot host :class:`DeploymentError`, and neither
        leaves a trace.

        ``shards`` requests key-partitioned scale-out for blocking
        operators when translating a conceptual dataflow (see
        :func:`repro.dsn.generate.dataflow_to_dsn`); ``elastic`` marks
        those shard clauses elastic, attaching the load-feedback
        rebalance loop (``--rebalance``).  A DSN program passed directly
        already carries its ``shard`` clauses, so both are only honoured
        for :class:`Dataflow` input.

        Every deployment runs the operator-fusion planner
        (:func:`repro.dataflow.fusion.chains_for`): maximal chains of
        non-blocking operators on private single-in/single-out channels
        are hosted in one process each, eliding the interior hops.  A
        program's explicit ``fuse`` clauses pin the plan.  Whether a
        fused chain runs a batch on its column kernels is the chain's
        call, per batch, from what it observes (DESIGN.md §16) — not a
        deploy option either.
        """
        registry = self.broker_network.registry
        if isinstance(flow_or_program, Dataflow):
            program = dataflow_to_dsn(
                flow_or_program, registry, shards=shards, elastic=elastic,
            )
        else:
            program = flow_or_program
        if program.name in self.deployments:
            existing = self.deployments[program.name]
            if existing.state is not DeploymentState.STOPPED:
                raise DeploymentError(
                    f"a deployment named {program.name!r} is already running"
                )
        check(program, registry).raise_if_invalid()
        self._admit(program)

        sensor_bindings = self.scn.discover(program, registry)
        demands = estimate_demands(program, sensor_bindings, self.scn)
        placements = self.scn.place(program, sensor_bindings, demands)
        plan = build_plan(program, sensor_bindings, placements, demands, self.scn)
        # Admitted latencies see fused members on their chain's node: the
        # elided interior hops are zero-distance.
        self.scn.admit_qos(program, plan.placements())

        deployment = Deployment(program.name, program, self, plan)
        for name, sensors in sensor_bindings.items():
            deployment.bindings[name] = _SourceBinding(
                service_name=name,
                sensors=sensors,
                filter=_filter_from_params(program.service(name).params),
                initial_count=len(sensors),
            )
        for unit in plan.units.values():
            self._spawn(deployment, unit)
        for edge in plan.edges:
            target = (deployment.shard_groups.get(edge.consumer)
                      or deployment.processes[edge.consumer])
            if edge.producer in plan.sources:
                self._bind_source(deployment, edge, target)
            else:
                deployment.processes[edge.producer].add_route(
                    target, port=edge.port,
                    qos=program.service(plan.service_of(edge.consumer)).qos,
                )

        if program.slos:
            self._install_slo_plane(deployment)

        # Start processes, hand them to the execution backend, and monitor.
        for process in deployment.processes.values():
            process.start()
        for process in deployment.processes.values():
            self.backend.host_process(process)
        self.monitor.watch(program.name, list(deployment.processes.values()))
        self.monitor.log(program.name, "deployed", f"{len(deployment.processes)} processes")
        deployment.state = DeploymentState.RUNNING
        deployment._rebalance_cancel = self.netsim.clock.schedule_periodic(
            self.rebalance_interval, lambda: self._rebalance(deployment)
        )
        for rebalancer in deployment.rebalancers.values():
            rebalancer.start()
        self.deployments[program.name] = deployment
        return deployment

    def _admit(self, program: DsnProgram) -> None:
        """Refuse a program needing a sink or plane this executor was
        built without."""
        for service in program.services_by_role(ServiceRole.SINK):
            if service.kind == "warehouse" and self.warehouse is None:
                raise DeploymentError(
                    f"sink {service.name!r} needs a warehouse, but the "
                    f"executor was built without one"
                )
            if service.kind == "visualization" and self.sticker is None:
                raise DeploymentError(
                    f"sink {service.name!r} needs a visualization feed, but "
                    f"the executor was built without one"
                )
        if program.slos and self.obs is None:
            raise DeploymentError(
                f"deployment {program.name!r} declares SLO clauses but the "
                "executor was built without observability"
            )

    def _spawn(self, deployment: Deployment, unit: Unit) -> None:
        """Host ``unit``'s operator in a new process ``"<flow>:<key>"`` on
        its node, booked with its deploy-time demand; a merge unit, the
        last of its service's units, completes the shard group."""
        operator = self._build_operator(deployment, unit)
        if self.obs is not None:
            operator.lineage = self.obs.lineage
        node_id = unit.placement.node_id
        process_id = f"{deployment.name}:{unit.key}"
        process = OperatorProcess(
            process_id, operator, node_id, self.netsim, obs=self.obs
        )
        if self.obs is not None:
            # The registry reads each hosted operator's own count; a fused
            # chain's members keep the process labels they carry unfused.
            hosted = (
                zip(unit.services, operator.members)
                if unit.role == CHAIN else ((unit.key, operator),)
            )
            for key, hosted_operator in hosted:
                self.obs.metrics.reader(
                    "process_tuples_total", "counter",
                    partial(getattr, hosted_operator.stats, "tuples_in"),
                    "tuples received by an operator process",
                    process=f"{deployment.name}:{key}",
                )
        if operator.checkpointable:
            process.enable_checkpoints(self.checkpoint_interval)
        process.placement_demand = unit.demand
        self.netsim.topology.node(node_id).update_demand(process_id, unit.demand)
        placement = unit.placement
        self.monitor.log(
            process_id, "placement",
            f"on {node_id} (score {placement.score:.3f}): {placement.reason}",
            service=unit.key, node=node_id, score=placement.score,
            reason=placement.reason,
        )
        deployment.processes[unit.key] = process
        if unit.role == MERGE:
            self._form_group(deployment, deployment.plan.groups[unit.service])

    def _build_operator(self, deployment: Deployment, unit: Unit):
        """The runtime operator a unit's process hosts.

        A fused chain is one :class:`~repro.streams.fused.FusedOperator`
        over its members; a shard wraps a full copy of the operator in a
        :class:`~repro.streams.shard.ShardedOperatorAdapter` (flushes
        travel as ordered envelopes); a merge is the
        :class:`~repro.streams.shard.ShardMergeOperator` that re-establishes
        the unsharded per-flush order before anything flows downstream.
        """
        program = deployment.program
        if unit.role == CHAIN:
            members = []
            for name in unit.services:
                operator = self._build_runtime(program.service(name), deployment)
                # Spans and describe() should carry the service names the
                # designer knows, not the operator class names.
                operator.name = name
                if self.obs is not None:
                    operator.lineage = self.obs.lineage
                members.append(operator)
            return FusedOperator(members, name=unit.key)
        service = program.service(unit.service)
        if unit.role in (SHARD, MERGE):
            members = deployment.plan.groups[service.name].members
            count = len(members)
            if unit.role == SHARD:
                return ShardedOperatorAdapter(
                    _spec(service).build_operator(),
                    shard_index=members.index(unit.key), shard_count=count,
                )
            mode = "aggregate" if service.kind == "aggregation" else "join"
            merge = ShardMergeOperator(count, mode, name=f"{service.name}-merge")
            if self.obs is not None:
                merge.bind_obs(self.obs.metrics, service.name)
            return merge
        return self._build_runtime(service, deployment)

    def _form_group(self, deployment: Deployment, shard: ShardPlan) -> None:
        """Gather a sharded service's spawned units into its
        :class:`ShardGroup`; an elastic one also gets its rebalance loop."""
        processes = deployment.processes
        members = [processes[key] for key in shard.members]
        assignment = None
        if shard.elastic:
            assignment = ShardAssignment(len(members))
        group = ShardGroup(
            service=shard.service,
            members=members,
            keys_by_port=shard.keys_by_port,
            merge=processes[shard.merge],
            assignment=assignment,
        )
        deployment.shard_groups[shard.service] = group
        if assignment is None:
            return
        from repro.runtime.rebalance import ShardRebalancer

        # Stragglers of a migrated key (tuples in flight when the
        # routing flipped) are handed to the current owner.
        def reroute(tuple_, port, group=group):
            group.member_for(tuple_, port).receive(tuple_, port=port)

        for member in members:
            member.operator.enable_elastic(shard.keys_by_port, reroute)
        deployment.rebalancers[shard.service] = ShardRebalancer(
            group,
            assignment,
            self.netsim,
            shard.service,
            interval=members[0].operator.interval,
            config=self.rebalance_config,
            log=self.monitor.log,
            combine_safe=_spec(
                deployment.program.service(shard.service)
            ).combine_safe(),
        )

    def _install_slo_plane(self, deployment: Deployment) -> None:
        """Install the latency plane for a deployment with SLO clauses.

        Creates the plane (idempotent per observability bundle), hooks the
        broker and network simulator, attaches a probe to every spawned
        process (reporting under its unit's logical service), takes each
        process's watermark upstream set from the plan's edges, and
        registers one alert rule per ``slo`` clause with the
        executor-wide engine.
        """
        program = deployment.program
        from repro.obs.alerts import AlertEngine

        plane = self.obs.ensure_latency()
        self.netsim.plane = plane
        plane.attach_broker(self.broker_network)
        processes = deployment.processes
        for key, unit in deployment.plan.units.items():
            process = processes[key]
            operator = process.operator
            process._probe = plane.register_process(
                process.process_id,
                blocking=operator.is_blocking,
                sink=operator.span_name == "sink",
                service=f"{program.name}:{unit.service}",
            )
        # Sources feed through the broker and have no probe (source_high
        # covers them).
        for key, feeds in deployment.plan.upstreams().items():
            plane.set_upstreams(
                processes[key].process_id,
                sorted(processes[up].process_id for up in feeds),
            )

        # The elastic control loops (PR 6) can read per-shard watermark
        # lag as a tie-breaking rebalance input.
        for service_name, rebalancer in deployment.rebalancers.items():
            group = deployment.shard_groups[service_name]
            rebalancer.load_monitor.lag_provider = (
                lambda members=tuple(group.members), plane=plane: [
                    plane.watermark_lag(member.process_id) or 0.0
                    for member in members
                ]
            )

        engine = self.alerts
        if engine is None:
            engine = self.alerts = AlertEngine(
                self.obs.metrics,
                plane=plane,
                log=self.monitor.log,
                cadence=self.alert_cadence,
            )
            engine.start(self.netsim.clock)
            self.monitor.alerts = engine
        for rule in _slo_rules(program):
            engine.add_rule(rule)

    def _build_runtime(self, service, deployment: Deployment):
        """Instantiate the runtime operator (or sink) for a service."""
        if service.role is ServiceRole.OPERATOR:
            operator = _spec(service).build_operator()
            if service.kind in ("trigger-on", "trigger-off"):
                operator.control = deployment.apply_control
            return operator
        # Sinks.
        config = dict(service.params.get("config", {}))
        if service.kind == "warehouse":
            # Bound once, at deploy time: the sink calls the loader
            # directly, with no forwarding frame per row, and hands it a
            # micro-batch whole (``load`` and ``push`` take a message).
            load = self.warehouse.load
            value_attribute = config.get("value_attribute")
            if value_attribute is not None:
                load = partial(load, value_attribute=value_attribute)
            return CallbackSink(
                load, name=f"warehouse:{service.name}", batch_callback=load
            )
        if service.kind == "visualization":
            push = self.sticker.push
            return CallbackSink(
                push, name=f"sticker:{service.name}", batch_callback=push
            )
        sink = ListSink(name=f"collector:{service.name}")
        deployment.collectors[service.name] = sink
        return sink

    def _bind_source(
        self,
        deployment: Deployment,
        edge: Edge,
        target: "OperatorProcess | ShardGroup",
    ) -> None:
        """Subscribe ``target`` to the sensors of the source ``edge`` binds.

        A process gets one subscription on its node.  A shard group gets
        one per member, on the member's node, joined into a
        :class:`~repro.pubsub.partition.ShardRouter` so the broker hashes
        each published tuple to exactly one member.  Each subscription is
        recorded on the source's binding and on the unit it feeds, which
        it follows when that unit moves, and carries the channel's batching
        policy, which the bound sensors publish under.
        """
        service = deployment.program.service(edge.producer)
        filter_ = _filter_from_params(service.params)
        port = edge.port
        group = isinstance(target, ShardGroup)
        members = target.members if group else [target]
        # ``receive`` takes either payload, so a delivered micro-batch is
        # handed over in one call instead of unrolling per tuple.
        callbacks = [
            (lambda payload, m=member, p=port: m.receive(payload, port=p))
            for member in members
        ]
        if group:
            subscriptions = self.broker_network.subscribe_sharded(
                node_ids=[member.node_id for member in members],
                filter_=filter_,
                callbacks=callbacks,
                keys=target.keys_for_port(port),
                batch_callbacks=callbacks,
                assignment=target.assignment,
                batch=edge.batch,
            ).members
            keys = deployment.plan.groups[edge.consumer].members
        else:
            subscription = self.broker_network.subscribe(
                node_id=target.node_id, filter_=filter_, callback=callbacks[0],
                batch=edge.batch,
            )
            subscription.batch_callback = subscription.callback
            subscriptions, keys = [subscription], (edge.consumer,)
        active = service.params.get("active", True)
        binding = deployment.bindings[edge.producer]
        for key, subscription in zip(keys, subscriptions):
            if not active:
                subscription.pause()
            binding.subscriptions.append(subscription)
            deployment.plan.units[key].subscriptions.append(subscription)

    # -- rebalancing -------------------------------------------------------------

    def _relocate(
        self, deployment: Deployment, key: str, node_id: str, score: float,
        reason: str,
    ) -> None:
        """Move unit ``key``'s process to ``node_id``: its placement
        records the move, its subscriptions follow it, and the monitor
        logs the reassignment."""
        unit = deployment.plan.units[key]
        process = deployment.processes[key]
        origin = process.node_id
        process.move_to(node_id)
        unit.placement = PlacementDecision(
            service=key, node_id=node_id, score=score, reason=reason,
        )
        for subscription in unit.subscriptions:
            subscription.node_id = node_id
        self.monitor.log(
            process.process_id, "reassigned",
            f"{origin} -> {node_id} ({reason})",
            from_node=origin, to_node=node_id, reason=reason,
        )

    def _rebalance(self, deployment: Deployment) -> None:
        """One SCN coordination round: migrate off overloaded/dead nodes."""
        if deployment.state not in (
            DeploymentState.RUNNING, DeploymentState.DEGRADED
        ):
            return
        now = self.netsim.clock.now
        self._evacuate_dead_nodes(deployment)
        processes = deployment.processes
        moves = self.scn.suggest_migrations(
            {p.process_id: PlacementDecision(p.process_id, p.node_id, 0.0, "live")
             for p in processes.values()},
            {p.process_id: p.sample_load(now) for p in processes.values()},
        )
        by_pid = {p.process_id: key for key, p in processes.items()}
        for move in moves:
            self._relocate(
                deployment, by_pid[move.service], move.to_node, 0.0,
                move.reason,
            )

    def _evacuate_dead_nodes(self, deployment: Deployment) -> None:
        """Coordination-round backstop: move processes off dead nodes.

        The heartbeat failure detector normally reacts first (see
        :meth:`_handle_node_death`); this catches anything it missed —
        e.g. a node that died with the monitor stopped.
        """
        dead = {
            process.node_id
            for process in deployment.processes.values()
            if not self.netsim.topology.node(process.node_id).up
        }
        for node_id in sorted(dead):
            self._replace_processes(deployment, node_id)

    def _handle_node_death(self, node_id: str) -> None:
        """Failure-detector verdict: re-place every process of every
        deployment that was running on the dead node."""
        for deployment in list(self.deployments.values()):
            if deployment.state in (
                DeploymentState.RUNNING,
                DeploymentState.DEGRADED,
                DeploymentState.PAUSED,
            ):
                self._replace_processes(deployment, node_id)

    def _replace_processes(self, deployment: Deployment, node_id: str) -> None:
        """Move a dead node's processes to survivors and restore state.

        Each displaced process is re-placed through the SCN's placement
        scoring (load + distance to the nodes feeding its head service),
        its blocking operator restored from the last checkpoint, and its
        feeding subscriptions re-pointed; the monitor logs each assignment
        change.  A fused chain re-places as one unit (it *is* one
        process).  With no live node left, processes stay put until one
        recovers.
        """
        displaced = [
            (name, process)
            for name, process in deployment.processes.items()
            if process.node_id == node_id
            and not self.netsim.topology.node(node_id).up
        ]
        for name, process in displaced:
            head = deployment.plan.units[name].services[0]
            upstream_nodes = [
                deployment.plan.placement(channel.source).node_id
                for channel in deployment.program.channels_into(head)
            ]
            # Floor at the deploy-time estimate: a process displaced
            # before its first monitor sample reads rate 0.0, and booking
            # zero demand lets every displaced sibling pack onto the same
            # node unseen (the place_shards double-booking bug).
            demand = max(
                process.rate.rate * process.operator.cost_per_tuple,
                process.placement_demand,
            )
            try:
                decision = self.scn.replace_service(
                    name, upstream_nodes, demand, avoid={node_id}
                )
            except PlacementError:
                return  # nowhere to go; keep waiting for recovery
            self.monitor.log(
                process.process_id, "replacement",
                f"on {decision.node_id} (score {decision.score:.3f})",
                service=name, node=decision.node_id, score=decision.score,
            )
            self._relocate(
                deployment, name, decision.node_id, decision.score,
                f"node {process.node_id!r} is down",
            )
            restored = process.restore_last_checkpoint()
            if restored:
                checkpoint_time = process.last_checkpoint[0]
                self.monitor.log(
                    process.process_id,
                    "checkpoint-restored",
                    f"state from t={checkpoint_time:.1f}s on {decision.node_id}",
                )
