"""Network topology: the graph of nodes and links, with routing.

Routing uses latency-weighted shortest paths over *live* nodes and links.
Routes are memoized: any change that can affect routing — adding nodes or
links, a node or link going down or coming back (including
``netsim.kill_node``/``revive_node``), a latency change — drops every
cached route.  The
uncached computation stays available as :meth:`Topology.route_uncached`,
the oracle the route-cache property tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.errors import NetworkError, UnknownNodeError, UnreachableError
from repro.network.link import Link
from repro.network.node import NetworkNode


@dataclass(frozen=True)
class RouteInfo:
    """A cached route with the per-hop data the simulator needs.

    ``links`` are the live :class:`Link` objects along ``path``, so a
    sender charges traffic without re-resolving each hop.  ``hops``
    additionally pre-extracts ``(latency, bandwidth, counters)`` per
    link for the delay/accounting loop; the snapshot stays valid because
    any latency/bandwidth/liveness change invalidates the cache entry.
    """

    path: tuple[str, ...]
    links: tuple[Link, ...]
    #: (latency, bandwidth, link.__dict__) per hop — the instance dict is
    #: shared with the Link, so counter writes land on the real object.
    hops: "tuple[tuple[float, float, dict], ...]" = ()


class Topology:
    """Undirected graph of :class:`NetworkNode` connected by :class:`Link`."""

    def __init__(self) -> None:
        self._graph = nx.Graph()
        self._nodes: dict[str, NetworkNode] = {}
        self._links: dict[tuple[str, str], Link] = {}
        #: (source, target) -> tuple path, or the UnreachableError message.
        self._route_cache: dict[tuple[str, str], "tuple[str, ...] | str"] = {}
        self._info_cache: dict[tuple[str, str], RouteInfo] = {}

    # -- cache invalidation --------------------------------------------------

    def invalidate_routes(self) -> None:
        """Drop all memoized routes."""
        self._route_cache.clear()
        self._info_cache.clear()

    # -- construction -------------------------------------------------------

    def add_node(self, node: "NetworkNode | str", **kwargs) -> NetworkNode:
        """Add a node (by object, or by id with NetworkNode kwargs)."""
        if isinstance(node, str):
            node = NetworkNode(node_id=node, **kwargs)
        if node.node_id in self._nodes:
            raise NetworkError(f"node {node.node_id!r} already in topology")
        self._nodes[node.node_id] = node
        self._graph.add_node(node.node_id)
        node._on_liveness_change = self.invalidate_routes
        self.invalidate_routes()
        return node

    def add_link(self, a: str, b: str, **kwargs) -> Link:
        """Connect two existing nodes with a link."""
        for node_id in (a, b):
            if node_id not in self._nodes:
                raise UnknownNodeError(f"unknown node {node_id!r}")
        link = Link(a=a, b=b, **kwargs)
        if link.key in self._links:
            raise NetworkError(f"link {link.key} already in topology")
        self._links[link.key] = link
        self._graph.add_edge(a, b)
        link._on_routing_change = self.invalidate_routes
        self.invalidate_routes()
        return link

    # -- lookups ---------------------------------------------------------------

    def node(self, node_id: str) -> NetworkNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"unknown node {node_id!r}") from None

    def link(self, a: str, b: str) -> Link:
        key = (a, b) if a <= b else (b, a)
        try:
            return self._links[key]
        except KeyError:
            raise NetworkError(f"no link between {a!r} and {b!r}") from None

    @property
    def nodes(self) -> list[NetworkNode]:
        return list(self._nodes.values())

    @property
    def node_ids(self) -> list[str]:
        return list(self._nodes)

    @property
    def links(self) -> list[Link]:
        return list(self._links.values())

    def live_nodes(self) -> list[NetworkNode]:
        return [node for node in self._nodes.values() if node.up]

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    # -- routing ----------------------------------------------------------------

    def _routing_graph(self) -> nx.Graph:
        graph = nx.Graph()
        for node in self._nodes.values():
            if node.up:
                graph.add_node(node.node_id)
        for link in self._links.values():
            if link.up and link.a in graph and link.b in graph:
                graph.add_edge(link.a, link.b, weight=link.latency)
        return graph

    def route_uncached(self, source: str, target: str) -> list[str]:
        """Latency-shortest path of node ids from source to target.

        Only live nodes/links participate.  Raises
        :class:`repro.errors.UnreachableError` when no path exists.

        This is the uncached reference computation — it rebuilds the
        routing graph on every call.  :meth:`route` memoizes it.
        """
        for node_id in (source, target):
            node = self.node(node_id)
            if not node.up:
                raise UnreachableError(f"node {node_id!r} is down")
        if source == target:
            return [source]
        graph = self._routing_graph()
        try:
            return nx.shortest_path(graph, source, target, weight="weight")
        except nx.NetworkXNoPath:
            raise UnreachableError(
                f"no live route from {source!r} to {target!r}"
            ) from None

    def route(self, source: str, target: str) -> list[str]:
        """Memoized :meth:`route_uncached` (same result, same errors).

        Cache entries — both paths and "no live route" outcomes — live
        until the next routing-relevant change.
        Down-endpoint errors are rechecked per call (cheap, and the
        liveness hooks mean cached entries never describe a topology
        where either endpoint is down anyway).
        """
        for node_id in (source, target):
            node = self.node(node_id)
            if not node.up:
                raise UnreachableError(f"node {node_id!r} is down")
        key = (source, target)
        cached = self._route_cache.get(key)
        if cached is None:
            try:
                cached = tuple(self.route_uncached(source, target))
            except UnreachableError as exc:
                cached = str(exc)
            self._route_cache[key] = cached
        if isinstance(cached, str):
            raise UnreachableError(cached)
        return list(cached)

    def route_info(self, source: str, target: str) -> RouteInfo:
        """The route plus its pre-resolved :class:`Link` objects, memoized.

        This is the simulator's hot path: ``NetworkSimulator.send`` needs
        every link along the path to compute delay and charge traffic, and
        resolving them via :meth:`link` per message dominates send cost.
        """
        key = (source, target)
        info = self._info_cache.get(key)
        if info is not None:
            # Endpoint liveness could only have changed via the hooks,
            # which would have cleared the cache — entries are fresh.
            return info
        path = self.route(source, target)
        links = tuple(self.link(a, b) for a, b in zip(path, path[1:]))
        info = RouteInfo(
            path=tuple(path),
            links=links,
            hops=tuple(
                (link.latency, link.bandwidth, link.__dict__)
                for link in links
            ),
        )
        self._info_cache[key] = info
        return info

    def route_latency(self, source: str, target: str) -> float:
        info = self.route_info(source, target)
        return sum(link.latency for link in info.links)

    # -- convenience builders ----------------------------------------------------

    @classmethod
    def star(
        cls,
        center_id: str = "hub",
        leaf_count: int = 4,
        capacity: float = 1000.0,
        latency: float = 0.002,
        bandwidth: float = 10_000_000.0,
    ) -> "Topology":
        """A hub-and-spoke topology (one central node, N edge nodes)."""
        topo = cls()
        topo.add_node(center_id, capacity=capacity * 2)
        for index in range(leaf_count):
            leaf = f"edge-{index}"
            topo.add_node(leaf, capacity=capacity, region=f"region-{index}")
            topo.add_link(center_id, leaf, latency=latency, bandwidth=bandwidth)
        return topo

    @classmethod
    def line(
        cls,
        node_count: int = 4,
        capacity: float = 1000.0,
        latency: float = 0.002,
        bandwidth: float = 10_000_000.0,
    ) -> "Topology":
        """A chain topology node-0 — node-1 — ... — node-(n-1)."""
        if node_count < 1:
            raise NetworkError("line topology needs at least one node")
        topo = cls()
        for index in range(node_count):
            topo.add_node(
                f"node-{index}", capacity=capacity, region=f"region-{index}"
            )
        for index in range(node_count - 1):
            topo.add_link(
                f"node-{index}",
                f"node-{index + 1}",
                latency=latency,
                bandwidth=bandwidth,
            )
        return topo
