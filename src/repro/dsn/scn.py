"""SCN: the network control layer that actuates DSN programs.

Responsibilities, following [ref 8] and Section 3 of the paper:

1. **Service discovery** — resolve each source service's filter against
   the pub-sub registry into concrete sensors (and their managing nodes).
2. **Placement** — assign every operator/sink service to a network node
   "depending on workload": a greedy score balancing current node load
   against the network distance to the service's upstream nodes, so
   operators land near their data (in-network processing).
3. **QoS admission** — reject placements whose route latency exceeds a
   channel's ``max_latency`` budget.
4. **Dynamic coordination** — given live load readings, propose
   migrations off overloaded nodes; the executor applies them and the
   monitor logs "when the assignment changes".

The controller is stateless between calls — all load truth lives in the
topology's nodes, and the monitor's execution log keeps the history of
what was placed and moved.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlacementError, ScnError
from repro.dsn.ast import DsnProgram, DsnService, ServiceRole
from repro.network.topology import Topology
from repro.pubsub.registry import SensorMetadata, SensorRegistry


@dataclass(frozen=True)
class PlacementDecision:
    """Where one service runs, and why."""

    service: str
    node_id: str
    score: float
    reason: str


@dataclass(frozen=True)
class Migration:
    """A proposed move of a running service to another node."""

    service: str
    from_node: str
    to_node: str
    reason: str


class ScnController:
    """Interprets DSN programs against a topology + registry."""

    def __init__(
        self,
        topology: Topology,
        overload_threshold: float = 0.9,
        load_weight: float = 1.0,
        distance_weight: float = 120.0,
    ) -> None:
        self.topology = topology
        self.overload_threshold = overload_threshold
        self.load_weight = load_weight
        self.distance_weight = distance_weight

    # -- service discovery ---------------------------------------------------

    def discover(
        self, program: DsnProgram, registry: SensorRegistry
    ) -> dict[str, list[SensorMetadata]]:
        """Resolve each source service to its concrete sensors."""
        bindings: dict[str, list[SensorMetadata]] = {}
        for service in program.services_by_role(ServiceRole.SOURCE):
            filter_ = service.filter()
            matches = [
                metadata
                for metadata in registry.all()
                if filter_.matches(metadata)
            ]
            if not matches:
                raise ScnError(
                    f"service discovery failed: source {service.name!r} "
                    f"matches no published sensor"
                )
            bindings[service.name] = sorted(matches, key=lambda m: m.sensor_id)
        return bindings

    # -- placement ----------------------------------------------------------------

    def place(
        self,
        program: DsnProgram,
        bindings: dict[str, list[SensorMetadata]],
        demands: "dict[str, float] | None" = None,
    ) -> dict[str, PlacementDecision]:
        """Assign every operator and sink service to a node.

        ``demands`` optionally estimates each service's load (cost-units/s)
        so placement can account for it; unknown services default to a
        nominal demand.  Placement walks services in channel-topological
        order so upstream locations are known when a service is scored.
        """
        demands = demands or {}
        placements: dict[str, PlacementDecision] = {}
        #: service name -> node(s) its output is produced on.
        locations: dict[str, list[str]] = {}

        for name, sensors in bindings.items():
            nodes = sorted({metadata.node_id for metadata in sensors})
            locations[name] = nodes
            placements[name] = PlacementDecision(
                service=name,
                node_id=nodes[0],
                score=0.0,
                reason=f"source bound to sensors on {', '.join(nodes)}",
            )

        #: Projected extra load per node from this deployment.
        projected: dict[str, float] = {}

        for service in self._topological_services(program):
            if service.role is ServiceRole.SOURCE:
                continue
            upstream_nodes: list[str] = []
            for channel in program.channels_into(service.name):
                upstream_nodes.extend(locations.get(channel.source, []))
            decision = self._score_nodes(
                service, upstream_nodes, demands.get(service.name, 1.0), projected
            )
            placements[service.name] = decision
            projected[decision.node_id] = projected.get(
                decision.node_id, 0.0
            ) + demands.get(service.name, 1.0)
            locations[service.name] = [decision.node_id]
        return placements

    def _topological_services(self, program: DsnProgram) -> list[DsnService]:
        import networkx as nx

        try:
            order = list(nx.topological_sort(program.data_graph()))
        except nx.NetworkXUnfeasible:
            raise ScnError(
                f"program {program.name!r} has cyclic channels"
            ) from None
        by_name = {service.name: service for service in program.services}
        return [by_name[name] for name in order]

    def replace_service(
        self,
        service_name: str,
        upstream_nodes: list[str],
        demand: float,
        avoid: "set[str] | None" = None,
    ) -> PlacementDecision:
        """Re-place one displaced service on a surviving node.

        The failure-recovery entry point: same scoring as initial
        placement (load plus network distance to the upstream nodes), over
        live nodes minus ``avoid`` (the dead node, in case it races the
        liveness flag).  Raises :class:`PlacementError` when no live node
        remains.
        """
        service = DsnService(
            role=ServiceRole.OPERATOR, name=service_name, kind="recovered"
        )
        return self._score_nodes(
            service, upstream_nodes, demand, projected={}, avoid=avoid
        )

    def place_shards(
        self,
        service_name: str,
        count: int,
        upstream_nodes: list[str],
        demand: float,
        projected: "dict[str, float] | None" = None,
        avoid: "set[str] | None" = None,
    ) -> list[PlacementDecision]:
        """Place ``count`` shard replicas of one service, spread out.

        Each shard is scored by :meth:`_score_nodes`.  Spreading is its
        candidate pool: nodes not already holding an earlier shard of the
        same service (every node again only once ``count`` exceeds the
        live nodes) — co-locating shards would erase the parallelism
        sharding exists to buy.  Capacity is a filter on that pool.
        ``demand`` is the per-shard load estimate and ``projected`` the
        load already booked per node by this deployment.  Raises
        :class:`PlacementError` when no live node remains or every
        candidate is capacity-exhausted.
        """
        projected = dict(projected or {})
        pool = self._live_nodes(avoid)
        if not pool:
            raise PlacementError(
                f"no live nodes to place shards of {service_name!r}"
            )
        decisions: list[PlacementDecision] = []
        used: set[str] = set()
        for index in range(count):
            candidates = [node for node in pool if node.node_id not in used]
            if not candidates:
                # More shards than nodes: start packing.
                candidates = pool
            eligible = [
                node
                for node in candidates
                if (node.load + projected.get(node.node_id, 0.0) + demand)
                <= node.capacity
            ]
            if not eligible:
                raise PlacementError(
                    f"capacity exhausted placing shard {index} of "
                    f"{service_name!r}: no candidate node can absorb "
                    f"demand {demand:g}"
                )
            shard = DsnService(
                role=ServiceRole.OPERATOR, name=f"{service_name}#{index}",
                kind="shard",
            )
            decision = self._score_nodes(
                shard, upstream_nodes, demand, projected, pool=eligible,
                reason=f"shard {index}/{count}, spread over live nodes",
            )
            decisions.append(decision)
            used.add(decision.node_id)
            projected[decision.node_id] = (
                projected.get(decision.node_id, 0.0) + demand
            )
        return decisions

    def _live_nodes(self, avoid: "set[str] | None" = None) -> list:
        return [
            node
            for node in self.topology.live_nodes()
            if not avoid or node.node_id not in avoid
        ]

    def _score_nodes(
        self,
        service: DsnService,
        upstream_nodes: list[str],
        demand: float,
        projected: dict[str, float],
        avoid: "set[str] | None" = None,
        pool: "list | None" = None,
        reason: "str | None" = None,
    ) -> PlacementDecision:
        """The one placement score, for :meth:`place`,
        :meth:`replace_service` and :meth:`place_shards`: the node of
        ``pool`` (default: the live nodes minus ``avoid``) minimising
        ``load_weight * utilization + distance_weight * latency`` to the
        upstream nodes.  Raises :class:`PlacementError` on an empty pool.
        """
        candidates = self._live_nodes(avoid) if pool is None else pool
        if not candidates:
            raise PlacementError(f"no live nodes to place {service.name!r}")
        best: "tuple[float, str] | None" = None
        for node in sorted(candidates, key=lambda n: n.node_id):
            load = node.load + projected.get(node.node_id, 0.0) + demand
            utilization = load / node.capacity
            distance = 0.0
            for upstream in upstream_nodes:
                try:
                    distance += self.topology.route_latency(
                        upstream, node.node_id
                    )
                except Exception:
                    distance += 10.0  # unreachable upstream: heavy penalty
            score = self.load_weight * utilization + self.distance_weight * distance
            if best is None or score < best[0]:
                best = (score, node.node_id)
        assert best is not None
        score, node_id = best
        return PlacementDecision(
            service=service.name,
            node_id=node_id,
            score=score,
            reason=reason or (
                f"min(load*{self.load_weight} + "
                f"latency*{self.distance_weight}) over live nodes"
            ),
        )

    # -- QoS admission ----------------------------------------------------------

    def admit_qos(
        self, program: DsnProgram, placements: dict[str, PlacementDecision]
    ) -> None:
        """Verify every sink channel's latency budget against the routes."""
        for service in program.services_by_role(ServiceRole.SINK):
            if service.qos is None or service.qos.max_latency == float("inf"):
                continue
            for channel in program.channels_into(service.name):
                src = placements[channel.source].node_id
                dst = placements[service.name].node_id
                latency = self.topology.route_latency(src, dst)
                if latency > service.qos.max_latency:
                    raise ScnError(
                        f"QoS admission failed: route {src}->{dst} for sink "
                        f"{service.name!r} has latency {latency:.4f}s, over "
                        f"the {service.qos.max_latency}s budget"
                    )

    # -- dynamic coordination ------------------------------------------------------

    def suggest_migrations(
        self,
        placements: dict[str, PlacementDecision],
        service_demands: dict[str, float],
        pinned: "set[str] | None" = None,
    ) -> list[Migration]:
        """Moves that relieve overloaded nodes.

        For each node over the overload threshold, the heaviest movable
        service hosted there is moved to the live node with the most
        headroom (if that actually helps).  Source services are pinned to
        their sensors' nodes and never move.
        """
        pinned = pinned or set()
        moves: list[Migration] = []
        hosted: dict[str, list[str]] = {}
        for name, decision in placements.items():
            hosted.setdefault(decision.node_id, []).append(name)

        for node in sorted(
            self.topology.live_nodes(), key=lambda n: -n.utilization
        ):
            if node.utilization <= self.overload_threshold:
                continue
            movable = [
                name
                for name in hosted.get(node.node_id, [])
                if name not in pinned and service_demands.get(name, 0.0) > 0.0
            ]
            if not movable:
                continue
            victim = max(movable, key=lambda name: service_demands.get(name, 0.0))
            demand = service_demands.get(victim, 0.0)
            targets = [
                other
                for other in self.topology.live_nodes()
                if other.node_id != node.node_id
            ]
            if not targets:
                continue
            target = max(targets, key=lambda n: n.headroom)
            if target.headroom < demand:
                continue  # nowhere with room; migration would not help
            moves.append(Migration(
                service=victim,
                from_node=node.node_id,
                to_node=target.node_id,
                reason=(
                    f"node {node.node_id!r} at {node.utilization:.0%} "
                    f"utilization (> {self.overload_threshold:.0%})"
                ),
            ))
        return moves
