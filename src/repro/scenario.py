"""Ready-made stacks and scenario dataflows.

Examples, tests and benchmarks all need the same setup: a topology, a
network simulator, a broker network, a sensor fleet, sinks, and an
executor.  :func:`build_stack` assembles one; :func:`osaka_scenario_flow`
builds the exact dataflow of the paper's Section 3 scenario.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataflow.graph import Dataflow
from repro.dataflow.ops import AggregationSpec, FilterSpec, TriggerOnSpec
from repro.dsn.scn import ScnController
from repro.network.netsim import NetworkSimulator
from repro.network.topology import Topology
from repro.obs import Observability
from repro.pubsub.broker import BrokerNetwork
from repro.pubsub.subscription import SubscriptionFilter
from repro.runtime.backends import (
    AsyncBackend,
    ExecutionBackend,
    backend_from_name,
)
from repro.runtime.executor import Executor
from repro.sensors.base import SimulatedSensor
from repro.sensors.osaka import osaka_fleet
from repro.sticker.feed import StickerFeed
from repro.warehouse.loader import EventWarehouse


@dataclass
class Stack:
    """Everything a running StreamLoader instance consists of."""

    topology: Topology
    netsim: NetworkSimulator
    broker_network: BrokerNetwork
    executor: Executor
    warehouse: EventWarehouse
    sticker: StickerFeed
    fleet: list[SimulatedSensor]
    obs: "Observability | None" = None
    #: The execution backend the stack runs on (None on stacks built
    #: before the backend seam existed — treated as the simulator).
    backend: "ExecutionBackend | None" = None

    @property
    def clock(self):
        return self.netsim.clock

    def sensor(self, sensor_id: str) -> SimulatedSensor:
        for sensor in self.fleet:
            if sensor.sensor_id == sensor_id:
                return sensor
        raise KeyError(f"no sensor {sensor_id!r} in the fleet")

    def run_until(self, time: float) -> int:
        return self.clock.run_until(time)

    def close(self) -> None:
        """Release backend resources (asyncio tasks/loops).  Idempotent."""
        if self.backend is not None:
            self.backend.close()

    def __enter__(self) -> "Stack":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def build_stack(
    topology: "Topology | None" = None,
    hot: bool = True,
    extended: bool = False,
    seed: int = 7,
    scn: "ScnController | None" = None,
    attach_fleet: bool = True,
    rebalance_interval: float = 300.0,
    replicas: int = 1,
    observability: "Observability | bool | float | None" = None,
    latency: bool = False,
    alert_cadence: float = 60.0,
    backend: "str | ExecutionBackend" = "sim",
    time_scale: "float | None" = None,
) -> Stack:
    """Assemble a full StreamLoader stack with the Osaka fleet.

    Args:
        topology: defaults to a 4-leaf star.
        hot: temperature regime (True: afternoons cross 25 °C).
        extended: include the full physical/social sensor roster.
        seed: fleet determinism seed.
        scn: custom controller (e.g. the centralized baseline).
        attach_fleet: set False to publish/attach sensors yourself.
        rebalance_interval: SCN coordination cadence in seconds.
        observability: ``True`` for a default bundle (sampling 1.0), a
            float for a bundle with that trace sampling rate, an
            :class:`~repro.obs.Observability` to bring your own, or
            None/False to run without metrics/tracing/lineage.
        latency: install the latency/watermark plane up front (``repro
            health`` uses this); implies a default observability bundle
            (sampling 0.0 — no tracing) when none was requested.
        alert_cadence: virtual-time cadence of the executor's alert
            engine ticks (only relevant once SLO rules are deployed).
        backend: execution backend — ``"sim"`` (deterministic
            discrete-event, the default and oracle), ``"async"`` (real
            asyncio tasks and bounded queues), or a pre-built
            :class:`~repro.runtime.backends.ExecutionBackend`.
        time_scale: async-backend pacing, in virtual seconds per wall
            second (``None``/``0`` free-runs).  Ignored by the simulator.
    """
    if observability is True:
        obs: "Observability | None" = Observability()
    elif isinstance(observability, (int, float)) and observability is not False:
        obs = Observability(sampling=float(observability))
    else:
        obs = observability or None
    if latency:
        if obs is None:
            obs = Observability(sampling=0.0)
        obs.ensure_latency()
    if isinstance(backend, str):
        topology = topology if topology is not None else Topology.star(leaf_count=4)
        if backend == "async":
            backend_obj: ExecutionBackend = AsyncBackend(
                topology=topology, time_scale=time_scale
            )
        else:
            backend_obj = backend_from_name(backend, topology=topology)
    else:
        # A pre-built backend brings its own topology (the ``topology``
        # argument would have had to be threaded into its constructor).
        backend_obj = backend
        topology = backend_obj.topology
    netsim = backend_obj.transport
    broker_network = BrokerNetwork(netsim=netsim)
    warehouse = EventWarehouse()
    sticker = StickerFeed()
    executor = Executor(
        netsim,
        broker_network,
        scn=scn or ScnController(topology),
        warehouse=warehouse,
        sticker=sticker,
        rebalance_interval=rebalance_interval,
        obs=obs,
        alert_cadence=alert_cadence,
        backend=backend_obj,
    )
    fleet = osaka_fleet(topology, hot=hot, extended=extended, seed=seed,
                        replicas=replicas)
    if attach_fleet:
        for sensor in fleet:
            sensor.attach(broker_network, netsim.clock)
    return Stack(
        topology=topology,
        netsim=netsim,
        broker_network=broker_network,
        executor=executor,
        warehouse=warehouse,
        sticker=sticker,
        fleet=fleet,
        obs=obs,
        backend=backend_obj,
    )


def sharded_aggregation_flow(
    stack: Stack,
    interval: float = 300.0,
    function: str = "AVG",
) -> Dataflow:
    """A scale-out scenario: per-station temperature averages.

    The simplest flow that exercises key-partitioned sharding: every
    physical sensor stamps its readings with a ``station`` attribute, and
    a grouped aggregation over it partitions cleanly (each station's
    groups live on exactly one shard).  Deploy with
    ``stack.executor.deploy(flow, shards=N)`` to split the aggregation
    into N replicas; the DSN program gains a
    ``shard "station-avg" N by "station";`` clause and the merge stage
    re-establishes the unsharded flush order downstream.
    """
    del stack  # symmetry with osaka_scenario_flow; the flow needs no fleet info
    flow = Dataflow("station-averages")
    temp = flow.add_source(
        SubscriptionFilter(sensor_type="temperature"), node_id="temperature"
    )
    averages = flow.add_operator(
        AggregationSpec(
            interval=interval,
            attributes=("temperature",),
            function=function,
            group_by="station",
        ),
        node_id="station-avg",
    )
    sink = flow.add_sink("collector", node_id="averages")
    flow.connect(temp, averages)
    flow.connect(averages, sink)
    return flow


def fused_pipeline_flow(stack: Stack) -> Dataflow:
    """A fusion scenario: a 3-op non-blocking chain over temperatures.

    The simplest flow that exercises operator fusion: keep -> double ->
    shift is a maximal linear chain of non-blocking operators, so the
    planner collapses it into one ``keep+double+shift`` process.  Each
    member still reports its own stats and counters, and the sink
    receives what the three operators applied on each tuple in turn
    would emit (``tests/oracle/test_flow_oracle.py``).
    """
    del stack  # symmetry with osaka_scenario_flow; no fleet info needed
    from repro.dataflow.ops import TransformSpec, VirtualPropertySpec

    flow = Dataflow("fused-pipeline")
    temp = flow.add_source(
        SubscriptionFilter(sensor_type="temperature"), node_id="temperature"
    )
    keep = flow.add_operator(
        FilterSpec("temperature > -100"), node_id="keep"
    )
    double = flow.add_operator(
        VirtualPropertySpec("double_temp", "temperature * 2"),
        node_id="double",
    )
    shift = flow.add_operator(
        TransformSpec(assignments={"temperature": "temperature + 1"}),
        node_id="shift",
    )
    sink = flow.add_sink("collector", node_id="fused-out")
    flow.connect(temp, keep)
    flow.connect(keep, double)
    flow.connect(double, shift)
    flow.connect(shift, sink)
    return flow


def osaka_scenario_flow(
    stack: Stack,
    temperature_threshold: float = 25.0,
    rain_threshold_mmh: float = 10.0,
    check_interval: float = 300.0,
    window: float = 3600.0,
) -> Dataflow:
    """The Section 3 scenario as a conceptual dataflow.

    "Acquiring the data about torrential rain, tweets and traffic only when
    the temperature identified in the last hour is above 25 °C": a Trigger
    On over the temperature streams gates three initially-dormant sources;
    torrential rain is filtered and warehoused; tweets go to Sticker;
    traffic is collected.
    """
    gated_types = ("rain", "twitter", "traffic")
    targets = tuple(
        sensor.sensor_id
        for sensor in stack.fleet
        if sensor.metadata.sensor_type in gated_types
    )

    flow = Dataflow("osaka-scenario")
    temp = flow.add_source(
        SubscriptionFilter(sensor_type="temperature"), node_id="temperature"
    )
    rain = flow.add_source(
        SubscriptionFilter(sensor_type="rain"), node_id="rain", initially_active=False
    )
    tweets = flow.add_source(
        SubscriptionFilter(sensor_type="twitter"),
        node_id="tweets",
        initially_active=False,
    )
    traffic = flow.add_source(
        SubscriptionFilter(sensor_type="traffic"),
        node_id="traffic",
        initially_active=False,
    )
    trigger = flow.add_operator(
        TriggerOnSpec(
            interval=check_interval,
            window=window,
            condition=f"avg_temperature > {temperature_threshold}",
            targets=targets,
        ),
        node_id="hot-hour-trigger",
    )
    torrential = flow.add_operator(
        FilterSpec(f"rain_rate > {rain_threshold_mmh}"), node_id="torrential"
    )
    warehouse_sink = flow.add_sink("warehouse", node_id="event-warehouse")
    sticker_sink = flow.add_sink("visualization", node_id="sticker")
    traffic_sink = flow.add_sink("collector", node_id="traffic-collector")

    flow.connect(temp, trigger)
    flow.connect(rain, torrential)
    flow.connect(torrential, warehouse_sink)
    flow.connect(tweets, sticker_sink)
    flow.connect(traffic, traffic_sink)
    for gated in (rain, tweets, traffic):
        flow.connect_control(trigger, gated)
    return flow
