"""Unit tests for the network simulator's message delivery."""

import pytest

from repro.network.netsim import NetworkSimulator
from repro.network.qos import QosPolicy
from repro.network.topology import Topology


@pytest.fixture
def sim() -> NetworkSimulator:
    return NetworkSimulator(topology=Topology.line(3, latency=0.01, bandwidth=1000.0))


class TestDelivery:
    def test_delivers_payload(self, sim):
        inbox = []
        sim.send("node-0", "node-2", {"v": 1}, 100.0, inbox.append)
        sim.clock.run()
        assert inbox == [{"v": 1}]
        assert sim.stats.messages_delivered == 1

    def test_delay_accumulates_over_hops(self, sim):
        times = []
        sim.send("node-0", "node-2", "x", 100.0, lambda _p: times.append(sim.clock.now))
        sim.clock.run()
        # Two hops: 2 * (0.01 latency + 100/1000 transmission) = 0.22.
        assert times[0] == pytest.approx(0.22)

    def test_local_send_is_fast(self, sim):
        times = []
        sim.send("node-1", "node-1", "x", 100.0, lambda _p: times.append(sim.clock.now))
        sim.clock.run()
        assert times[0] == 0.0
        # Local sends move no bytes on links.
        assert sim.total_link_bytes() == 0.0

    def test_link_byte_accounting(self, sim):
        sim.send("node-0", "node-2", "x", 100.0, lambda _p: None)
        sim.clock.run()
        assert sim.total_link_bytes() == 200.0  # 100 bytes x 2 hops
        assert sim.topology.link("node-0", "node-1").bytes_transferred == 100.0

    def test_ordering_preserved_between_same_pair(self, sim):
        inbox = []
        sim.send("node-0", "node-2", 1, 100.0, inbox.append)
        sim.send("node-0", "node-2", 2, 100.0, inbox.append)
        sim.clock.run()
        assert inbox == [1, 2]


class TestDrops:
    def test_unreachable_drops(self, sim):
        sim.topology.node("node-1").fail()
        drops = []
        sim.on_drop = lambda message, reason: drops.append(reason)
        result = sim.send("node-0", "node-2", "x", 100.0, lambda _p: None)
        assert result is None
        assert sim.stats.messages_dropped == 1
        assert "no live route" in drops[0]

    def test_target_dies_in_flight(self, sim):
        inbox = []
        sim.send("node-0", "node-2", "x", 100.0, inbox.append)
        sim.topology.node("node-2").fail()
        sim.clock.run()
        assert inbox == []
        assert sim.stats.messages_dropped == 1

    def test_latency_budget_exceeded(self, sim):
        strict = QosPolicy(qos_class="real-time", max_latency=0.05)
        result = sim.send("node-0", "node-2", "x", 100.0, lambda _p: None, qos=strict)
        assert result is None
        assert sim.stats.messages_dropped == 1

    def test_latency_budget_satisfied(self, sim):
        lenient = QosPolicy(qos_class="real-time", max_latency=1.0)
        inbox = []
        sim.send("node-0", "node-2", "x", 100.0, inbox.append, qos=lenient)
        sim.clock.run()
        assert inbox == ["x"]


class TestFaultInjection:
    def test_kill_and_revive_node(self, sim):
        sim.kill_node("node-1")
        assert not sim.topology.node("node-1").up
        sim.revive_node("node-1")
        assert sim.topology.node("node-1").up

    def test_kill_counts_one_failure_per_transition(self, sim):
        sim.kill_node("node-1")
        sim.kill_node("node-1")  # already down: not a new failure
        assert sim.topology.node("node-1").failures == 1
        sim.revive_node("node-1")
        sim.kill_node("node-1")
        assert sim.topology.node("node-1").failures == 2

    def test_per_message_on_drop_for_immediate_loss(self, sim):
        sim.kill_node("node-1")  # severs the line topology
        losses = []
        sim.send("node-0", "node-2", "x", 100.0, lambda _p: None,
                 on_drop=lambda message, reason: losses.append(reason))
        assert len(losses) == 1 and "no live route" in losses[0]

    def test_per_message_on_drop_for_in_flight_loss(self, sim):
        losses = []
        sim.send("node-0", "node-2", "x", 100.0, lambda _p: None,
                 on_drop=lambda message, reason: losses.append(reason))
        sim.kill_node("node-2")
        sim.clock.run()
        assert len(losses) == 1

    def test_per_message_callback_runs_before_global_hook(self, sim):
        order = []
        sim.on_drop = lambda message, reason: order.append("global")
        sim.kill_node("node-1")
        sim.send("node-0", "node-2", "x", 100.0, lambda _p: None,
                 on_drop=lambda message, reason: order.append("local"))
        assert order == ["local", "global"]

    def test_delivered_message_never_reports_loss(self, sim):
        losses = []
        inbox = []
        sim.send("node-0", "node-2", "x", 100.0, inbox.append,
                 on_drop=lambda message, reason: losses.append(reason))
        sim.clock.run()
        assert inbox == ["x"] and losses == []


class TestStats:
    def test_mean_delay(self, sim):
        sim.send("node-0", "node-1", "x", 0.0, lambda _p: None)
        sim.send("node-0", "node-2", "x", 0.0, lambda _p: None)
        sim.clock.run()
        assert sim.stats.mean_delay == pytest.approx(0.015)  # (0.01 + 0.02)/2
