"""The physical plan: the processes a DSN program deploys as, and their wiring.

:func:`build_plan` lowers a checked program, plus the SCN's discovery and
placement decisions, into *units* (one per process: key, hosted services,
role, placement, booked demand) and *edges* (one per process route or
source binding: producer, consumer, port, batching policy), once, before
anything is spawned.  The executor instantiates the plan in order and
reads everything else off it: watermark upstream sets, re-placement's
upstream services, the logical service a probe reports under.
:func:`unit_keys` is the only code that turns service names into process
keys (``a+b+c`` for a fused chain, ``svc#k`` for shard k, ``svc#merge``
for a sharded service's merge stage), so nothing downstream parses one;
the consistency check reads it to hold the keys unique.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dataflow.fusion import chains_for
from repro.dsn.ast import DsnProgram, ServiceRole
from repro.dsn.scn import PlacementDecision, ScnController
from repro.pubsub.registry import SensorMetadata
from repro.pubsub.subscription import BatchingPolicy
from repro.streams.fused import FUSED_NAME_SEPARATOR

#: Unit roles.
OPERATOR = "operator"
SINK = "sink"
CHAIN = "chain"
SHARD = "shard"
MERGE = "merge"


@dataclass
class Unit:
    """One process of the plan."""

    key: str
    #: Conceptual services hosted, in chain order (one unless fused).
    services: tuple[str, ...]
    role: str
    #: Where the process runs; moves and re-placements overwrite it.
    placement: PlacementDecision
    #: Deploy-time demand (cost-units/s) booked on the placement's node.
    demand: float
    #: Subscriptions delivering into this process; they follow it when it
    #: moves.  Filled when the executor binds the sources.
    subscriptions: list = field(default_factory=list, repr=False)

    @property
    def service(self) -> str:
        """The logical service this unit reports under: its one service
        (a shard's or merge's is the sharded service), or a fused chain's
        key."""
        return self.services[0] if len(self.services) == 1 else self.key


@dataclass(frozen=True)
class Edge:
    """One process route, or one source binding (``producer`` is a source
    service), into a unit or a shard group (``consumer`` is the sharded
    service).  ``batch`` is the source channel's micro-batch policy."""

    producer: str
    consumer: str
    port: int = 0
    batch: "BatchingPolicy | None" = None


@dataclass(frozen=True)
class ShardPlan:
    """A sharded service: its shard units, its merge unit, and the
    partitioning key attributes per input port."""

    service: str
    members: tuple[str, ...]
    merge: str
    keys_by_port: tuple[tuple[str, ...], ...]
    elastic: bool


@dataclass
class PhysicalPlan:
    """Units in spawn order, edges in wiring order."""

    #: source service -> where its sensors are (discovery's first node).
    sources: dict[str, PlacementDecision]
    units: dict[str, Unit] = field(default_factory=dict)
    edges: list[Edge] = field(default_factory=list)
    #: sharded service -> its shards and merge.
    groups: dict[str, ShardPlan] = field(default_factory=dict)
    #: operator/sink service -> the unit its output leaves from (a fused
    #: member's chain, a sharded service's merge).
    exits: dict[str, str] = field(default_factory=dict)

    def placement(self, name: str) -> PlacementDecision:
        """Where a source, a unit, or a service runs (a service reads the
        unit its output leaves from)."""
        if name in self.sources:
            return self.sources[name]
        return self.units[self.exits.get(name, name)].placement

    def placements(self) -> dict[str, PlacementDecision]:
        """:meth:`placement` of every source, service and unit."""
        names = dict.fromkeys([*self.sources, *self.exits, *self.units])
        return {name: self.placement(name) for name in names}

    def service_of(self, consumer: str) -> str:
        """The conceptual service an edge into ``consumer`` enters."""
        unit = self.units.get(consumer)
        return consumer if unit is None else unit.services[0]

    def upstreams(self) -> dict[str, set[str]]:
        """Unit key -> the unit keys feeding it (sources excluded): the
        watermark graph.  An edge into a group feeds every member."""
        feeds: dict[str, set[str]] = {key: set() for key in self.units}
        for edge in self.edges:
            if edge.producer in self.sources:
                continue
            group = self.groups.get(edge.consumer)
            for key in group.members if group else (edge.consumer,):
                feeds[key].add(edge.producer)
        return feeds


#: Demand (cost-units/s) assumed for a service before live rates are known.
_NOMINAL_DEMAND = 1.0


def estimate_demands(
    program: DsnProgram,
    bindings: dict[str, list[SensorMetadata]],
    scn: ScnController,
) -> dict[str, float]:
    """Expected cost-units/s per service from advertised sensor rates.

    Rates propagate along channels: pass-through for per-tuple
    operators, 1/interval for aggregations, zero for triggers (control
    only).  This is only the *initial* placement signal, the demand each
    unit books; live rates take over at the first monitor sample.
    """
    rates: dict[str, float] = {}
    demands: dict[str, float] = {}
    for service in scn._topological_services(program):
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


def unit_keys(program: DsnProgram) -> "list[tuple[str, tuple[str, ...], str]]":
    """``(key, hosted services, role)`` of every process ``program``
    deploys as, in spawn order: the program's service order, a fused chain
    at its head, a sharded service as its shards then its merge."""
    chain_of = {name: chain for chain in chains_for(program) for name in chain}
    shards = {shard.service: shard for shard in program.shards if shard.count > 1}
    keys: list[tuple[str, tuple[str, ...], str]] = []
    for service in program.services:
        name = service.name
        if service.role is ServiceRole.SOURCE:
            continue
        if name in shards:
            keys += [(f"{name}#{index}", (name,), SHARD)
                     for index in range(shards[name].count)]
            keys.append((f"{name}#merge", (name,), MERGE))
        elif name in chain_of:
            chain = chain_of[name]
            if name == chain[0]:
                keys.append((FUSED_NAME_SEPARATOR.join(chain), chain, CHAIN))
        else:
            role = OPERATOR if service.role is ServiceRole.OPERATOR else SINK
            keys.append((name, (name,), role))
    return keys


def build_plan(
    program: DsnProgram,
    bindings: dict[str, list[SensorMetadata]],
    placements: dict[str, PlacementDecision],
    demands: dict[str, float],
    scn: ScnController,
) -> PhysicalPlan:
    """Lower a checked program into units and edges.

    ``bindings`` is the SCN's source discovery, ``placements`` its
    per-service placement and ``demands`` the deploy-time estimates.  Units
    follow :func:`unit_keys`; shards are placed here, through
    :meth:`ScnController.place_shards`, with the demand every earlier unit
    books as ``projected`` load.
    """
    chain_of = {name: chain for chain in chains_for(program) for name in chain}
    shards = {shard.service: shard for shard in program.shards if shard.count > 1}
    plan = PhysicalPlan(sources={name: placements[name] for name in bindings})
    #: node -> demand booked by the units planned so far.
    booked: dict[str, float] = {}
    #: sharded service -> placements of its shards not yet planned.
    spread: dict[str, list[PlacementDecision]] = {}

    for key, services, role in unit_keys(program):
        name = services[0]
        placement, demand = placements.get(name), demands.get(name, 0.0)
        if role == CHAIN:
            placement = PlacementDecision(key, placement.node_id,
                                          placement.score, placement.reason)
            # Members see the same stream, so their demands overlap rather
            # than add: the chain books its heaviest member's.
            demand = max(demands.get(member, 0.0) for member in services)
        elif role in (SHARD, MERGE):
            shard = shards[name]
            demand /= shard.count  # the demand splits across the replicas
        if role == SHARD and name not in spread:
            upstream_nodes: list[str] = []
            for channel in program.channels_into(name):
                if channel.source in bindings:
                    upstream_nodes.extend(sorted(
                        {m.node_id for m in bindings[channel.source]}
                    ))
                else:  # a fused member sits on its chain head's node
                    head = chain_of.get(channel.source, (channel.source,))[0]
                    upstream_nodes.append(placements[head].node_id)
            spread[name] = scn.place_shards(
                name, shard.count, upstream_nodes, demand, projected=booked
            )
        if role == SHARD:
            placement = spread[name].pop(0)
        plan.units[key] = Unit(key, services, role, placement, demand)
        if role == MERGE:
            if program.service(name).kind == "join" and len(shard.keys) >= 2:
                keys_by_port = tuple((attr,) for attr in shard.keys)
            else:
                keys_by_port = (tuple(shard.keys),)
            members = tuple(unit.key for unit in plan.units.values()
                            if unit.role == SHARD and unit.services == services)
            plan.groups[name] = ShardPlan(
                name, members, key, keys_by_port, shard.elastic
            )
        if role != SHARD:
            plan.exits.update(dict.fromkeys(services, key))
        booked[placement.node_id] = booked.get(placement.node_id, 0.0) + demand

    # Shards feed their merge first: these routes predate every channel's.
    for group in plan.groups.values():
        plan.edges.extend(Edge(key, group.merge) for key in group.members)
    for channel in program.channels:
        source, target = channel.source, channel.target
        if source in chain_of and chain_of[source] == chain_of.get(target):
            continue  # fused-interior hop: traversed inside one process
        plan.edges.append(Edge(
            source if source in plan.sources else plan.exits[source],
            target if target in plan.groups else plan.exits[target],
            channel.port,
            channel.batching,
        ))
    return plan
