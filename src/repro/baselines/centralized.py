"""Centralized streaming baseline: no in-network placement.

Identical runtime to StreamLoader, but the SCN is replaced with a
controller that pins every operator, sink and shard to one central node.
Raw streams therefore always cross the network to the center before any
filtering/culling happens — the traffic delta against workload-aware
placement is the in-network dividend the SCN papers claim.
"""

from __future__ import annotations

from repro.dsn.ast import DsnService
from repro.dsn.scn import PlacementDecision, ScnController
from repro.errors import PlacementError
from repro.network.topology import Topology


class CentralizedScnController(ScnController):
    """An SCN that places everything on ``center_node`` and never migrates."""

    def __init__(self, topology: Topology, center_node: str) -> None:
        super().__init__(topology)
        topology.node(center_node)  # validate it exists
        self.center_node = center_node

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
        """The center; while it is down or avoided, nowhere (so displaced
        processes stay put until it recovers)."""
        if not self.topology.node(self.center_node).up or (
            avoid and self.center_node in avoid
        ):
            raise PlacementError(
                f"center node {self.center_node!r} is unavailable; "
                f"cannot place {service.name!r}"
            )
        return PlacementDecision(
            service=service.name,
            node_id=self.center_node,
            score=0.0,
            reason="centralized baseline: all services on the center node",
        )

    def suggest_migrations(self, placements, service_demands, pinned=None):
        return []
