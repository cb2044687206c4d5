"""Shared tuple/topology factories for the ``run_*`` benchmark runners.

Mirrors ``_timing.py``: the runners (``run_fusion``, ``run_latency``)
feed synthetic weather readings through a line of simulated nodes from
one tuple factory and one topology builder.  BENCH_N.json records are
regression anchors, so the payload constants must not drift: readings
are ``15.0 + (i % 13)``.
"""

from __future__ import annotations

from repro.network.netsim import NetworkSimulator
from repro.network.topology import Topology
from repro.streams.tuple import SensorTuple
from repro.stt.event import SttStamp
from repro.stt.spatial import Point

#: Every bench reading is stamped at the same site (Umeda, Osaka).
SITE = Point(34.69, 135.50)


def make_tuple(i: int) -> SensorTuple:
    """The canonical bench reading: a station temperature varying with
    ``i`` over ``[15, 28)``, stamped at virtual time ``i``."""
    return SensorTuple(
        payload={"station": "umeda", "temperature": 15.0 + (i % 13)},
        stamp=SttStamp(time=float(i), location=SITE),
        source="bench",
        seq=i,
    )


def line_topology(node_count: int = 8, latency: float = 0.001) -> Topology:
    """``n0 - n1 - ... - n{count-1}`` with uniform link latency."""
    topo = Topology()
    for i in range(node_count):
        topo.add_node(f"n{i}")
    for i in range(node_count - 1):
        topo.add_link(f"n{i}", f"n{i + 1}", latency=latency)
    return topo


def line_sim(node_count: int = 8, latency: float = 0.001) -> NetworkSimulator:
    return NetworkSimulator(topology=line_topology(node_count, latency))
