"""Unit tests: batched transmission and tuple-denominated traffic stats."""

import pytest

from repro.network.netsim import NetworkSimulator
from repro.network.qos import QosPolicy
from repro.network.topology import Topology
from repro.streams.tuple import (
    SensorTuple, TupleBatch, estimate_batch_size_bytes,
)
from repro.stt.event import SttStamp
from repro.stt.spatial import Point


def make_batch(count: int) -> TupleBatch:
    return TupleBatch.of([
        SensorTuple(
            payload={"v": float(i)},
            stamp=SttStamp(time=float(i), location=Point(34.69, 135.50)),
            source="s",
            seq=i,
        )
        for i in range(count)
    ])


@pytest.fixture
def sim() -> NetworkSimulator:
    return NetworkSimulator(topology=Topology.line(3))


class TestSendBatch:
    def test_one_message_many_tuples(self, sim):
        batch = make_batch(5)
        inbox = []
        sim.send("node-0", "node-2", batch,
                 estimate_batch_size_bytes(batch), inbox.append, units=5)
        sim.clock.run()
        assert len(inbox) == 1
        assert list(inbox[0]) == list(batch)
        assert sim.stats.messages_sent == 1
        assert sim.stats.tuples_sent == 5
        assert sim.stats.messages_delivered == 1
        assert sim.stats.tuples_delivered == 5

    def test_single_send_counts_one_tuple(self, sim):
        sim.send("node-0", "node-2", 1, 10.0, lambda _p: None)
        sim.clock.run()
        assert sim.stats.messages_sent == 1
        assert sim.stats.tuples_sent == 1
        assert sim.stats.tuples_delivered == 1

    def test_links_charged_once_per_batch(self, sim):
        batch = make_batch(8)
        size = estimate_batch_size_bytes(batch)
        sim.send("node-0", "node-2", batch, size, lambda _p: None, units=8)
        sim.clock.run()
        for link in sim.topology.links:
            assert link.messages_transferred == 1
            assert link.bytes_transferred == size

    def test_local_delivery_is_immediate_and_counted(self, sim):
        batch = make_batch(3)
        inbox = []
        sim.send("node-1", "node-1", batch, 30.0, inbox.append, units=3)
        sim.clock.run()
        assert len(inbox) == 1
        assert sim.stats.tuples_delivered == 3
        for link in sim.topology.links:
            assert link.messages_transferred == 0

    def test_unreachable_batch_drops_once(self, sim):
        sim.topology.node("node-2").fail()
        drops = []
        batch = make_batch(4)
        sim.send("node-0", "node-2", batch, 40.0, lambda _p: None,
                 on_drop=lambda message, reason: drops.append(
                     (message.units, reason)),
                 units=4)
        sim.clock.run()
        assert len(drops) == 1
        units, reason = drops[0]
        assert units == 4
        assert reason
        assert sim.stats.messages_dropped == 1
        assert sim.stats.tuples_delivered == 0

    def test_qos_budget_drop_fires_on_drop_once(self, sim):
        drops = []
        batch = make_batch(4)
        sim.send(
            "node-0", "node-2", batch, 40.0, lambda _p: None,
            qos=QosPolicy(max_latency=1e-9),
            on_drop=lambda message, reason: drops.append(message.units),
            units=4,
        )
        sim.clock.run()
        assert drops == [4]

    def test_empty_batch_moves_zero_tuples(self, sim):
        inbox = []
        sim.send("node-0", "node-2", TupleBatch.of([]), 24.0,
                 inbox.append, units=0)
        sim.clock.run()
        assert sim.stats.messages_sent == 1
        assert sim.stats.tuples_sent == 0
        assert len(inbox) == 1
