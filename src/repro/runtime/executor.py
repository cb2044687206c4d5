"""The executor: deploy DSN programs and coordinate their processes.

Deployment pipeline (Section 3 / demo part P2):

1. validate + translate the conceptual dataflow (or accept a DSN program);
2. SCN service discovery: bind source services to published sensors;
3. estimate per-service load and ask the SCN for a placement;
4. QoS admission on the sink channels;
5. spawn one :class:`OperatorProcess` per operation/sink on its node;
6. wire channels (process routes) and source subscriptions (pub-sub);
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
from repro.dsn.generate import dataflow_to_dsn
from repro.dsn.scn import PlacementDecision, ScnController
from repro.network.netsim import NetworkSimulator
from repro.pubsub.broker import BrokerNetwork
from repro.pubsub.registry import SensorMetadata
from repro.pubsub.subscription import Subscription
from repro.runtime.backends.base import ExecutionBackend
from repro.runtime.backends.sim import SimBackend
from repro.runtime.lifecycle import DeploymentState
from repro.runtime.monitor import Monitor
from repro.runtime.process import OperatorProcess
from repro.runtime.sharding import ShardGroup
from repro.streams.base import ControlCommand
from repro.streams.sink import CallbackSink, ListSink
from repro.streams.tuple import SensorTuple

#: Nominal demand (cost-units/s) assumed for a service before live rates
#: are known.
_NOMINAL_DEMAND = 1.0


@dataclass
class _SourceBinding:
    """A deployed source service: its sensors and subscriptions."""

    service_name: str
    sensors: list[SensorMetadata]
    subscriptions: list[Subscription] = field(default_factory=list)
    #: The source's discovery filter (re-matched as sensors come and go).
    filter: "object | None" = None
    #: Sensors matched at deploy time — the quorum reference point.
    initial_count: int = 0

    @property
    def sensor_ids(self) -> set[str]:
        return {metadata.sensor_id for metadata in self.sensors}


class Deployment:
    """A running dataflow: processes, bindings, placements, state."""

    def __init__(
        self,
        name: str,
        program: DsnProgram,
        executor: "Executor",
        flow: "Dataflow | None" = None,
    ) -> None:
        self.name = name
        self.program = program
        self.flow = flow
        self.executor = executor
        self.processes: dict[str, OperatorProcess] = {}
        #: conceptual service name -> its shard group (sharded blocking
        #: operators only).  The member processes also appear in
        #: :attr:`processes` under ``"<service>#<index>"`` keys and the
        #: merge stage under ``"<service>#merge"``.
        self.shard_groups: dict[str, ShardGroup] = {}
        #: member service name -> the fused process key ("a+b+c") hosting
        #: it.  Fused chains collapse a run of non-blocking services into
        #: one process (see :mod:`repro.dataflow.fusion`); the members do
        #: not appear in :attr:`processes` individually.
        self.fused: dict[str, str] = {}
        #: fused process key -> its member service names, in chain order.
        self.fused_chains: dict[str, tuple[str, ...]] = {}
        self.bindings: dict[str, _SourceBinding] = {}
        self.placements: dict[str, PlacementDecision] = {}
        self.collectors: dict[str, ListSink] = {}
        #: source service -> micro-batch hint (max over its channels'
        #: declared ``batch``).  The scenario layer applies these to the
        #: matched sensors (the executor does not own sensor objects).
        self.batch_hints: dict[str, int] = {}
        #: conceptual service name -> its elastic-sharding control loop
        #: (only services deployed with ``shard ... elastic``).
        self.rebalancers: dict[str, object] = {}
        self.state = DeploymentState.DESIGNED
        self._rebalance_cancel: "Callable[[], None] | None" = None
        #: subscription id -> the process that consumes its deliveries.
        self._sub_targets: dict[int, OperatorProcess] = {}

    # -- accessors ----------------------------------------------------------

    def process(self, service_name: str) -> OperatorProcess:
        """The process hosting a service (a fused member resolves to the
        chain's shared process)."""
        key = self.fused.get(service_name, service_name)
        try:
            return self.processes[key]
        except KeyError:
            raise DeploymentError(
                f"no process for service {service_name!r} in {self.name!r}"
            ) from None

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
            if binding.filter is None:
                continue
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
        self.executor.monitor.unwatch(self.name)
        self.state = DeploymentState.STOPPED

    def apply_control(self, command: ControlCommand) -> int:
        """Actuate a trigger command: toggle governed subscriptions.

        Returns the number of subscriptions toggled.  The command's sensor
        ids select which governed sources are affected; a command naming no
        sensor bound to this deployment toggles nothing.
        """
        self.executor.monitor.record_control(self.name, command)
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
            if getattr(self.scn, "tracer", None) is None:
                self.scn.tracer = obs.tracer
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
            self.monitor.record_dead_letter(
                subscription.subscription_id,
                subscription.node_id,
                tuple_.source,
                reason,
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

    # -- demand estimation -------------------------------------------------------

    def _estimate_demands(
        self, program: DsnProgram, bindings: dict[str, list[SensorMetadata]]
    ) -> dict[str, float]:
        """Expected cost-units/s per service from advertised sensor rates.

        Rates propagate along channels: pass-through for per-tuple
        operators, 1/interval for aggregations, zero for triggers (control
        only).  This is only the *initial* placement signal; live rates
        take over at the first monitor sample.
        """
        rates: dict[str, float] = {}
        demands: dict[str, float] = {}
        for service in self.scn._topological_services(program):
            if service.role is ServiceRole.SOURCE:
                sensors = bindings.get(service.name, [])
                rates[service.name] = sum(m.frequency for m in sensors)
                continue
            in_rate = sum(
                rates.get(channel.source, 0.0)
                for channel in program.channels_into(service.name)
            )
            if service.kind == "aggregation":
                interval = float(service.params.get("interval", 1.0))
                out_rate = 1.0 / interval if interval > 0 else 0.0
            elif service.kind in ("trigger-on", "trigger-off"):
                out_rate = 0.0
            else:
                out_rate = in_rate
            rates[service.name] = out_rate
            demands[service.name] = max(_NOMINAL_DEMAND, in_rate)
        return demands

    # -- deployment --------------------------------------------------------------

    def deploy(
        self,
        flow_or_program: "Dataflow | DsnProgram",
        shards: "int | dict[str, int] | None" = None,
        elastic: bool = False,
    ) -> Deployment:
        """Translate (if needed), place, spawn, wire, and start a dataflow.

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
        if isinstance(flow_or_program, Dataflow):
            flow = flow_or_program
            program = dataflow_to_dsn(
                flow, self.broker_network.registry, shards=shards,
                elastic=elastic,
            )
        else:
            flow = None
            program = flow_or_program
            program.check()
        if program.name in self.deployments:
            existing = self.deployments[program.name]
            if existing.state is not DeploymentState.STOPPED:
                raise DeploymentError(
                    f"a deployment named {program.name!r} is already running"
                )

        deployment = Deployment(program.name, program, self, flow=flow)
        sensor_bindings = self.scn.discover(program, self.broker_network.registry)
        demands = self._estimate_demands(program, sensor_bindings)
        placements = self.scn.place(program, sensor_bindings, demands)

        # Fusion plan: collapse each chain's members onto the head's
        # placement *before* QoS admission, so admitted latencies reflect
        # the elided (zero-distance) interior hops.
        from repro.dataflow.fusion import chains_for

        chains = chains_for(program)
        member_of: dict[str, tuple[str, ...]] = {}
        for chain in chains:
            head = placements[chain[0]]
            for name in chain:
                member_of[name] = chain
                if name != chain[0]:
                    placements[name] = PlacementDecision(
                        service=name,
                        node_id=head.node_id,
                        score=head.score,
                        reason=f"fused with {chain[0]}",
                    )

        self.scn.admit_qos(program, placements)
        deployment.placements = placements

        # Spawn processes for operators and sinks.
        from repro.dsn.scn import _filter_from_params

        shard_specs = {
            shard.service: shard
            for shard in program.shards
            if shard.count > 1
        }
        for service in program.services:
            if service.role is ServiceRole.SOURCE:
                sensors = sensor_bindings[service.name]
                deployment.bindings[service.name] = _SourceBinding(
                    service_name=service.name,
                    sensors=sensors,
                    filter=_filter_from_params(service.params),
                    initial_count=len(sensors),
                )
                continue
            if (
                service.role is ServiceRole.OPERATOR
                and service.name in shard_specs
            ):
                self._spawn_sharded(
                    deployment,
                    service,
                    shard_specs[service.name],
                    placements,
                    sensor_bindings,
                    demands,
                )
                continue
            if service.name in member_of:
                chain = member_of[service.name]
                if service.name == chain[0]:
                    self._spawn_fused(deployment, chain, placements, demands)
                continue
            self._spawn(
                deployment, service.name,
                self._build_runtime(service, deployment),
                placements[service.name].node_id,
                demands.get(service.name, 0.0),
            )

        # Wire channels.
        for channel in program.channels:
            if (
                channel.source in deployment.fused
                and deployment.fused[channel.source]
                == deployment.fused.get(channel.target)
            ):
                continue  # fused-interior hop: traversed inside one process
            # Deliveries into a sharded operator go to its group, which
            # key-partitions them across the member processes.  A channel
            # into a fused chain can only target its head (the planner
            # guarantees interior members have no other feeder), and the
            # head resolves to the chain's shared process.
            group = deployment.shard_groups.get(channel.target)
            target = (group if group is not None
                      else deployment.process(channel.target))
            if channel.source not in deployment.bindings:
                self._outgoing_process(deployment, channel.source).add_route(
                    target, port=channel.port,
                    qos=program.service(channel.target).qos,
                )
                continue
            if group is not None:
                self._bind_source_sharded(
                    deployment, channel.source, group, channel.port
                )
            else:
                self._bind_source(deployment, channel.source, target, channel.port)
            if channel.batch > 1:
                deployment.batch_hints[channel.source] = max(
                    deployment.batch_hints.get(channel.source, 1),
                    channel.batch,
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

    def _spawn(
        self, deployment: Deployment, key: str, operator, node_id: str,
        demand: float,
    ) -> OperatorProcess:
        """Host ``operator`` in a new process ``"<flow>:<key>"`` on
        ``node_id``, booked with its deploy-time ``demand``, and register
        it under ``key``."""
        if self.obs is not None:
            operator.lineage = self.obs.lineage
        process_id = f"{deployment.name}:{key}"
        process = OperatorProcess(
            process_id=process_id,
            operator=operator,
            node_id=node_id,
            netsim=self.netsim,
            obs=self.obs,
        )
        if operator.checkpointable:
            process.enable_checkpoints(self.checkpoint_interval)
        process.placement_demand = demand
        self.netsim.topology.node(node_id).update_demand(process_id, demand)
        deployment.processes[key] = process
        return process

    @staticmethod
    def _repoint_subscriptions(
        deployment: Deployment, process: OperatorProcess, node_id: str
    ) -> None:
        """Subscriptions feeding a moved process follow it to ``node_id``."""
        for binding in deployment.bindings.values():
            for subscription in binding.subscriptions:
                if deployment._sub_targets.get(
                    subscription.subscription_id
                ) is process:
                    subscription.node_id = node_id

    def _install_slo_plane(self, deployment: Deployment) -> None:
        """Install the latency plane for a deployment with SLO clauses.

        Creates the plane (idempotent per observability bundle), hooks the
        broker and network simulator, attaches a probe to every spawned
        process, lowers the dataflow's channel graph into per-process
        watermark upstream sets, and registers one alert rule per ``slo``
        clause with the executor-wide engine.
        """
        program = deployment.program
        if self.obs is None:
            raise DeploymentError(
                f"deployment {program.name!r} declares SLO clauses but the "
                "executor was built without observability"
            )
        from repro.obs.alerts import AlertEngine, AlertRule

        plane = self.obs.ensure_latency()
        self.netsim.plane = plane
        plane.attach_broker(self.broker_network)
        for process in deployment.processes.values():
            operator = process.operator
            process._probe = plane.register_process(
                process.process_id,
                blocking=operator.is_blocking,
                sink=operator.span_name == "sink",
            )

        # Watermark graph: each channel between *deployed* services adds
        # the emitting process to the consuming process's upstream set.
        # Sources feed through the broker and have no probe (source_high
        # covers them); shard groups fan a channel in across the members
        # and out through the merge; fused members collapse to the chain.
        upstreams: dict[str, set[str]] = {
            key: set() for key in deployment.processes
        }

        def out_key(service_name: str) -> "str | None":
            if service_name in deployment.bindings:
                return None
            if service_name in deployment.shard_groups:
                return f"{service_name}#merge"
            return deployment.fused.get(service_name, service_name)

        def in_keys(service_name: str) -> list[str]:
            group = deployment.shard_groups.get(service_name)
            if group is not None:
                return [
                    f"{service_name}#{index}"
                    for index in range(len(group.members))
                ]
            return [deployment.fused.get(service_name, service_name)]

        for channel in program.channels:
            up = out_key(channel.source)
            if up is None:
                continue
            for down in in_keys(channel.target):
                if down != up:
                    upstreams[down].add(up)
        for service_name, group in deployment.shard_groups.items():
            merge_key = f"{service_name}#merge"
            for index in range(len(group.members)):
                upstreams[merge_key].add(f"{service_name}#{index}")
        for key in deployment.processes:
            plane.set_upstreams(
                deployment.processes[key].process_id,
                sorted(
                    deployment.processes[up].process_id
                    for up in upstreams[key]
                ),
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
                tracer=self.obs.tracer,
                cadence=self.alert_cadence,
            )
            engine.start(self.netsim.clock)
            self.monitor.alerts = engine
        for slo in program.slos:
            engine.add_rule(
                AlertRule(
                    name=f"slo:{slo.flow}:{slo.metric}",
                    metric=slo.metric,
                    op=slo.op,
                    threshold=slo.threshold,
                    window=slo.window,
                    scope=slo.flow,
                )
            )

    def _build_runtime(self, service, deployment: Deployment):
        """Instantiate the runtime operator (or sink) for a service."""
        from repro.dataflow.ops import spec_from_dict

        if service.role is ServiceRole.OPERATOR:
            spec = spec_from_dict({"kind": service.kind, **service.params})
            operator = spec.build_operator()
            if service.kind in ("trigger-on", "trigger-off"):
                operator.control = deployment.apply_control
            return operator
        # Sinks.
        config = dict(service.params.get("config", {}))
        if service.kind == "warehouse":
            if self.warehouse is None:
                raise DeploymentError(
                    f"sink {service.name!r} needs a warehouse, but the "
                    f"executor was built without one"
                )
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
            if self.sticker is None:
                raise DeploymentError(
                    f"sink {service.name!r} needs a visualization feed, but "
                    f"the executor was built without one"
                )
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
        service_name: str,
        target: OperatorProcess,
        port: int,
    ) -> None:
        """Subscribe the target process to the source's sensors."""
        service = deployment.program.service(service_name)
        from repro.dsn.scn import _filter_from_params

        filter_ = _filter_from_params(service.params)
        subscription = self.broker_network.subscribe(
            node_id=target.node_id,
            filter_=filter_,
            callback=lambda payload, t=target, p=port: t.receive(payload, port=p),
        )
        # ``receive`` takes either payload, so a delivered micro-batch is
        # handed over in one call instead of unrolling per tuple.
        subscription.batch_callback = subscription.callback
        if not service.params.get("active", True):
            subscription.pause()
        deployment.bindings[service_name].subscriptions.append(subscription)
        deployment._sub_targets[subscription.subscription_id] = target

    # -- fused chains ------------------------------------------------------------

    def _spawn_fused(
        self,
        deployment: Deployment,
        chain: "tuple[str, ...]",
        placements: dict[str, PlacementDecision],
        demands: dict[str, float],
    ) -> None:
        """Spawn one process hosting a whole fused non-blocking chain.

        The process is keyed and named ``"a+b+c"`` after its members,
        placed on the chain head's node, and booked with the chain's
        *max* member demand (the members see the same stream, so their
        demands overlap rather than add; the summed per-tuple cost is
        carried by the fused operator's ``cost_per_tuple``).
        """
        from repro.streams.fused import FUSED_NAME_SEPARATOR, FusedOperator

        program = deployment.program
        members = []
        for name in chain:
            operator = self._build_runtime(program.service(name), deployment)
            # Spans and describe() should carry the service names the
            # designer knows, not the operator class names.
            operator.name = name
            if self.obs is not None:
                operator.lineage = self.obs.lineage
            members.append(operator)
        key = FUSED_NAME_SEPARATOR.join(chain)
        fused = FusedOperator(members, name=key)
        if self.obs is not None:
            fused.bind_obs(
                self.obs.metrics,
                [f"{program.name}:{name}" for name in chain],
            )
        head = placements[chain[0]]
        self._spawn(
            deployment, key, fused, head.node_id,
            max(demands.get(name, 0.0) for name in chain),
        )
        deployment.placements[key] = PlacementDecision(
            service=key,
            node_id=head.node_id,
            score=head.score,
            reason=head.reason,
        )
        deployment.fused_chains[key] = chain
        for name in chain:
            deployment.fused[name] = key

    def _chain_placements(
        self, deployment: Deployment, key: str, node_id: str,
        score: float, reason: str,
    ) -> None:
        """Keep fused members' placement records on the chain's node.

        Channels name the conceptual member services, so replacement and
        placement lookups read the member entries; they must follow the
        shared process wherever it moves.
        """
        for member in deployment.fused_chains.get(key, ()):
            deployment.placements[member] = PlacementDecision(
                service=member, node_id=node_id, score=score, reason=reason,
            )

    # -- sharded operators -------------------------------------------------------

    def _outgoing_process(
        self, deployment: Deployment, service_name: str
    ) -> OperatorProcess:
        """The process that emits a service's output downstream.

        For a sharded service that is its merge stage (shards feed the
        merge, the merge feeds the rest of the flow); for a fused member
        the chain's shared process (only the tail has outward channels);
        otherwise the service's own process.
        """
        group = deployment.shard_groups.get(service_name)
        if group is not None:
            assert group.merge is not None
            return group.merge
        return deployment.process(service_name)

    def _spawn_sharded(
        self,
        deployment: Deployment,
        service,
        shard,
        placements: dict[str, PlacementDecision],
        sensor_bindings: dict[str, list[SensorMetadata]],
        demands: dict[str, float],
    ) -> None:
        """Spawn one blocking operator as N key-partitioned shard replicas.

        Each shard is a full copy of the operator wrapped in a
        :class:`~repro.streams.shard.ShardedOperatorAdapter` (so flushes
        travel as ordered envelopes), placed on its own node through
        :meth:`ScnController.place_shards`.  A
        :class:`~repro.streams.shard.ShardMergeOperator` on the service's
        conceptual placement node re-establishes the unsharded per-flush
        order before anything flows downstream.
        """
        from repro.dataflow.ops import spec_from_dict
        from repro.streams.shard import ShardedOperatorAdapter, ShardMergeOperator

        program = deployment.program
        count = shard.count
        #: the conceptual demand splits across the replicas.
        demand = demands.get(service.name, 0.0) / count
        upstream_nodes: list[str] = []
        for channel in program.channels_into(service.name):
            if channel.source in sensor_bindings:
                upstream_nodes.extend(
                    sorted({m.node_id for m in sensor_bindings[channel.source]})
                )
            elif channel.source in placements:
                upstream_nodes.append(placements[channel.source].node_id)
        decisions = self.scn.place_shards(
            service.name, count, upstream_nodes, demand
        )

        spec = spec_from_dict({"kind": service.kind, **service.params})
        members: list[OperatorProcess] = []
        for index in range(count):
            inner = spec.build_operator()
            adapter = ShardedOperatorAdapter(
                inner, shard_index=index, shard_count=count
            )
            key = f"{service.name}#{index}"
            members.append(self._spawn(
                deployment, key, adapter, decisions[index].node_id, demand
            ))
            deployment.placements[key] = decisions[index]

        mode = "aggregate" if service.kind == "aggregation" else "join"
        merge = ShardMergeOperator(
            count, mode, name=f"{service.name}-merge"
        )
        if self.obs is not None:
            merge.bind_obs(self.obs.metrics, service.name)
        merge_key = f"{service.name}#merge"
        merge_process = self._spawn(
            deployment, merge_key, merge, placements[service.name].node_id,
            demand,
        )
        deployment.placements[merge_key] = placements[service.name]

        if service.kind == "join" and len(shard.keys) >= 2:
            keys_by_port: tuple[tuple[str, ...], ...] = tuple(
                (key,) for key in shard.keys
            )
        else:
            keys_by_port = (tuple(shard.keys),)
        for member in members:
            member.add_route(merge_process, port=0, qos=service.qos)
        assignment = None
        if getattr(shard, "elastic", False):
            from repro.runtime.rebalance import ShardRebalancer
            from repro.streams.shard import ShardAssignment

            assignment = ShardAssignment(count)
        group = ShardGroup(
            service=service.name,
            members=members,
            keys_by_port=keys_by_port,
            merge=merge_process,
            assignment=assignment,
        )
        deployment.shard_groups[service.name] = group
        if assignment is not None:
            # Stragglers of a migrated key (tuples in flight when the
            # routing flipped) are handed to the current owner.
            def reroute(tuple_, port, group=group):
                group.member_for(tuple_, port).receive(tuple_, port=port)

            for member in members:
                member.operator.enable_elastic(keys_by_port, reroute)
            deployment.rebalancers[service.name] = ShardRebalancer(
                group,
                assignment,
                self.netsim,
                service.name,
                interval=members[0].operator.interval,
                config=self.rebalance_config,
                monitor=self.monitor,
                combine_safe=spec.combine_safe(),
            )

    def _bind_source_sharded(
        self,
        deployment: Deployment,
        service_name: str,
        group: ShardGroup,
        port: int,
    ) -> None:
        """Subscribe a shard group to the source's sensors.

        One subscription per shard, all on the shard's own node, joined
        into a :class:`~repro.pubsub.partition.ShardRouter` so the broker
        hashes each published tuple to exactly one member.
        """
        service = deployment.program.service(service_name)
        from repro.dsn.scn import _filter_from_params

        filter_ = _filter_from_params(service.params)
        callbacks = [
            (lambda payload, m=member, p=port: m.receive(payload, port=p))
            for member in group.members
        ]
        router = self.broker_network.subscribe_sharded(
            node_ids=[member.node_id for member in group.members],
            filter_=filter_,
            callbacks=callbacks,
            keys=group.keys_for_port(port),
            batch_callbacks=callbacks,
            assignment=group.assignment,
        )
        active = service.params.get("active", True)
        binding = deployment.bindings[service_name]
        for member_sub, member in zip(router.members, group.members):
            if not active:
                member_sub.pause()
            binding.subscriptions.append(member_sub)
            deployment._sub_targets[member_sub.subscription_id] = member

    # -- rebalancing -------------------------------------------------------------

    def _rebalance(self, deployment: Deployment) -> None:
        """One SCN coordination round: migrate off overloaded/dead nodes."""
        if deployment.state not in (
            DeploymentState.RUNNING, DeploymentState.DEGRADED
        ):
            return
        now = self.netsim.clock.now
        self._evacuate_dead_nodes(deployment)
        service_demands: dict[str, float] = {}
        current: dict[str, PlacementDecision] = {}
        for name, process in deployment.processes.items():
            service_demands[process.process_id] = process.sample_load(now)
            current[process.process_id] = PlacementDecision(
                service=process.process_id,
                node_id=process.node_id,
                score=0.0,
                reason="live",
            )
        moves = self.scn.suggest_migrations(current, service_demands)
        by_pid = {p.process_id: (name, p) for name, p in deployment.processes.items()}
        for move in moves:
            name, process = by_pid[move.service]
            process.move_to(move.to_node)
            deployment.placements[name] = PlacementDecision(
                service=name,
                node_id=move.to_node,
                score=0.0,
                reason=move.reason,
            )
            self._chain_placements(
                deployment, name, move.to_node, 0.0, move.reason
            )
            self._repoint_subscriptions(deployment, process, move.to_node)
            self.monitor.record_assignment(
                move.service, move.from_node, move.to_node, move.reason
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
        scoring (load + distance to its upstream services), its blocking
        operator restored from the last checkpoint, and its feeding
        subscriptions re-pointed; the monitor logs each assignment change.
        With no live node left, processes stay put until one recovers.
        """
        displaced = [
            (name, process)
            for name, process in deployment.processes.items()
            if process.node_id == node_id
            and not self.netsim.topology.node(node_id).up
        ]
        for name, process in displaced:
            # Shard and merge processes are keyed "<service>#<suffix>" but
            # the program's channels name the conceptual service.
            base = name.split("#", 1)[0]
            # A fused process is keyed "a+b+c"; the channels feeding it
            # name its head member, and the whole chain re-places as one
            # unit (it *is* one process).
            chain = deployment.fused_chains.get(base)
            if chain is not None:
                base = chain[0]
            upstream_nodes = [
                deployment.placements[channel.source].node_id
                for channel in deployment.program.channels_into(base)
                if channel.source in deployment.placements
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
            origin = process.node_id
            reason = f"node {origin!r} is down"
            process.move_to(decision.node_id)
            restored = process.restore_last_checkpoint()
            self._repoint_subscriptions(deployment, process, decision.node_id)
            deployment.placements[name] = PlacementDecision(
                service=name,
                node_id=decision.node_id,
                score=decision.score,
                reason=reason,
            )
            self._chain_placements(
                deployment, name, decision.node_id, decision.score, reason
            )
            self.monitor.record_assignment(
                process.process_id, origin, decision.node_id, reason
            )
            if restored:
                checkpoint_time = process.last_checkpoint[0]
                self.monitor.log(
                    process.process_id,
                    "checkpoint-restored",
                    f"state from t={checkpoint_time:.1f}s on {decision.node_id}",
                )
