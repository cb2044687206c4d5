"""Unit tests for operator processes on nodes."""

import pytest

from repro.errors import DeploymentError
from repro.network.netsim import NetworkSimulator
from repro.network.qos import QosPolicy
from repro.network.topology import Topology
from repro.obs import Observability
from repro.runtime.process import OperatorProcess, Route
from repro.streams.aggregate import AggregationOperator
from repro.streams.filter import FilterOperator
from repro.streams.sink import ListSink
from repro.streams import tuple as tuple_module
from repro.streams.tuple import SensorTuple, TupleBatch


@pytest.fixture
def sim() -> NetworkSimulator:
    return NetworkSimulator(topology=Topology.line(3))


class TestLifecycle:
    def test_registers_on_node(self, sim):
        process = OperatorProcess("p1", FilterOperator("temperature > 0"),
                                  "node-0", sim)
        assert "p1" in sim.topology.node("node-0").processes

    def test_stop_unregisters(self, sim):
        process = OperatorProcess("p1", FilterOperator("temperature > 0"),
                                  "node-0", sim)
        process.start()
        process.stop()
        assert "p1" not in sim.topology.node("node-0").processes

    def test_double_start_raises(self, sim):
        process = OperatorProcess("p1", FilterOperator("true"), "node-0", sim)
        process.start()
        with pytest.raises(DeploymentError):
            process.start()

    def test_blocking_operator_gets_timer(self, sim, make_tuple):
        agg = AggregationOperator(interval=60.0, attributes=["temperature"],
                                  function="AVG")
        process = OperatorProcess("p1", agg, "node-0", sim)
        sink = OperatorProcess("p2", ListSink(), "node-0", sim)
        process.add_route(sink)
        process.start()
        process.receive(make_tuple(0, temperature=10.0))
        sim.clock.run_until(120.0)
        assert len(sink.operator.received) == 1

    def test_stop_cancels_timer(self, sim, make_tuple):
        agg = AggregationOperator(interval=60.0, attributes=["temperature"],
                                  function="AVG")
        process = OperatorProcess("p1", agg, "node-0", sim)
        sink = OperatorProcess("p2", ListSink(), "node-0", sim)
        process.add_route(sink)
        process.start()
        process.receive(make_tuple(0))
        process.stop()
        sim.clock.run_until(600.0)
        assert sink.operator.received == []


class TestDataPath:
    def test_emissions_forwarded_over_network(self, sim, make_tuple):
        filter_ = OperatorProcess("f", FilterOperator("temperature > 24"),
                                  "node-0", sim)
        sink = OperatorProcess("k", ListSink(), "node-2", sim)
        filter_.add_route(sink)
        filter_.start()
        sink.start()
        filter_.receive(make_tuple(0, temperature=30.0))
        filter_.receive(make_tuple(1, temperature=10.0))
        sim.clock.run()
        assert len(sink.operator.received) == 1
        assert sim.total_link_bytes() > 0

    def test_dead_node_processes_nothing(self, sim, make_tuple):
        process = OperatorProcess("f", FilterOperator("true"), "node-0", sim)
        sink = OperatorProcess("k", ListSink(), "node-0", sim)
        process.add_route(sink)
        sim.topology.node("node-0").fail()
        process.receive(make_tuple(0))
        sim.clock.run()
        assert process.operator.stats.tuples_in == 0

    def test_work_accounted(self, sim, make_tuple):
        process = OperatorProcess("f", FilterOperator("true"), "node-0", sim)
        for i in range(10):
            process.receive(make_tuple(i))
        assert sim.topology.node("node-0").work_done == pytest.approx(10.0)


class TestBurstFraming:
    """What one process call emits travels as one message per route."""

    @staticmethod
    def flush_rig(sim, qos=None):
        """A grouped AVG on node-0 flushing every 60 s to a sink on node-2."""
        agg = AggregationOperator(interval=60.0, attributes=["temperature"],
                                  function="AVG", group_by="station")
        process = OperatorProcess("agg", agg, "node-0", sim)
        sink = OperatorProcess("k", ListSink(), "node-2", sim)
        process.add_route(sink, qos=qos)
        process.start()
        return process, sink

    @staticmethod
    def spy_on_send(sim):
        sends = []
        original = sim.send

        def spy(*args, **kwargs):
            sends.append(args)
            return original(*args, **kwargs)

        sim.send = spy
        return sends

    def test_flush_of_many_is_one_batch_and_of_one_a_bare_tuple(
            self, sim, make_tuple):
        process, sink = self.flush_rig(sim)
        sends = self.spy_on_send(sim)
        for i in range(5):
            process.receive(make_tuple(i, station=f"st-{i}"))
        sim.clock.run_until(90.0)
        process.receive(make_tuple(5, station="st-0", time=91.0))
        sim.clock.run_until(150.0)
        payloads = [args[2] for args in sends]
        assert [type(p) for p in payloads] == [TupleBatch, SensorTuple]
        assert len(payloads[0]) == 5
        assert sim.stats.messages_sent == 2
        assert sim.stats.tuples_sent == 6
        assert len(sink.operator.received) == 6

    def test_lone_tuple_is_sized_once_and_sent_without_a_closure(
            self, sim, make_tuple, monkeypatch):
        source = OperatorProcess("f", FilterOperator("true"), "node-0", sim)
        for index, node_id in enumerate(("node-1", "node-2")):
            source.add_route(
                OperatorProcess(f"k{index}", ListSink(), node_id, sim))
        sizings = []
        original = tuple_module._members_size_bytes

        def counting(tuples):
            sizings.append(len(tuples))
            return original(tuples)

        monkeypatch.setattr(tuple_module, "_members_size_bytes", counting)
        sends = self.spy_on_send(sim)
        source.receive(make_tuple(0))
        assert sizings == [1]
        assert len(sends) == 2
        for route, args in zip(source.routes, sends):
            on_delivery = args[4]
            # The route's own bound method, not a function made per send.
            assert on_delivery.__func__ is Route.deliver
            assert on_delivery.__self__ is route
        for _, _, event in sim.clock._heap:
            assert event.callback.__func__ is NetworkSimulator._deliver
        sim.clock.run()
        assert all(len(r.target.operator.received) == 1 for r in source.routes)

    def test_burst_over_the_qos_budget_is_dropped_whole(self, make_tuple):
        # 10 kB/s links: a lone ~110-byte row crosses both hops in ~0.03 s,
        # a six-row burst needs ~0.14 s and misses the 0.06 s budget.
        sim = NetworkSimulator(topology=Topology.line(3, bandwidth=10_000.0))
        drops = []
        sim.on_drop = lambda message, reason: drops.append(
            (message.units, reason))
        process, sink = self.flush_rig(sim, qos=QosPolicy(max_latency=0.06))
        process.receive(make_tuple(0, station="st-0"))
        sim.clock.run_until(90.0)
        assert len(sink.operator.received) == 1  # a lone row fits the budget
        for i in range(6):
            process.receive(make_tuple(i, station=f"st-{i}", time=91.0))
        sim.clock.run_until(150.0)
        assert len(sink.operator.received) == 1
        assert sim.stats.messages_dropped == 1
        assert [units for units, _ in drops] == [6]
        assert "QoS budget" in drops[0][1]
        assert sim.stats.tuples_sent == 7
        assert sim.stats.tuples_delivered == 1

    def test_node_dying_in_flight_loses_the_burst_whole(self, sim, make_tuple):
        process, sink = self.flush_rig(sim)
        drops = []
        sim.on_drop = lambda message, reason: drops.append(message.units)
        for i in range(4):
            process.receive(make_tuple(i, station=f"st-{i}"))
        sim.clock.schedule_at(60.001, sim.kill_node, "node-2")
        sim.clock.run_until(90.0)
        assert sink.operator.received == []
        assert sim.stats.messages_sent == 1
        assert sim.stats.messages_dropped == 1
        assert drops == [4]
        assert sim.stats.tuples_delivered == 0


class TestTracing:
    @staticmethod
    def span_tree(make_tuple, batched: bool) -> "list[tuple[str, str | None]]":
        """(span, parent span) names of one traced tuple sent through
        filter -> sink processes, alone or inside a batch of two."""
        obs = Observability(sampling=1.0)
        sim = NetworkSimulator(topology=Topology.line(3))
        sim.tracer = obs.tracer
        filter_ = OperatorProcess("f", FilterOperator("temperature > 24"),
                                  "node-0", sim, obs=obs)
        sink = OperatorProcess("k", ListSink(), "node-2", sim, obs=obs)
        filter_.add_route(sink)
        ctx = obs.tracer.start_trace("publish", 0.0)
        traced = make_tuple(0, temperature=30.0).with_trace(ctx)
        if batched:
            filter_.receive(
                TupleBatch.of([traced, make_tuple(1, temperature=30.0)]))
        else:
            filter_.receive(traced)
        sim.clock.run()
        assert len(sink.operator.received) == (2 if batched else 1)
        spans = obs.tracer.trace(ctx.trace_id)
        names = {span.span_id: span.name for span in spans}
        return [(span.name, names.get(span.parent_id)) for span in spans]

    def test_span_tree_is_the_same_alone_and_inside_a_batch(self, make_tuple):
        chain = [("publish", None), ("evaluate", "publish"),
                 ("transmit", "evaluate"), ("sink", "transmit")]
        assert self.span_tree(make_tuple, batched=False) == chain
        assert self.span_tree(make_tuple, batched=True) == chain


class TestMigration:
    def test_move_transfers_registration(self, sim):
        process = OperatorProcess("f", FilterOperator("true"), "node-0", sim)
        process.move_to("node-1")
        assert process.node_id == "node-1"
        assert "f" not in sim.topology.node("node-0").processes
        assert "f" in sim.topology.node("node-1").processes

    def test_move_to_same_node_is_noop(self, sim):
        process = OperatorProcess("f", FilterOperator("true"), "node-0", sim)
        process.move_to("node-0")
        assert "f" in sim.topology.node("node-0").processes

    def test_forwarding_uses_new_location(self, sim, make_tuple):
        source = OperatorProcess("f", FilterOperator("true"), "node-0", sim)
        sink = OperatorProcess("k", ListSink(), "node-1", sim)
        source.add_route(sink)
        sink.move_to("node-2")
        source.receive(make_tuple(0))
        sim.clock.run()
        assert len(sink.operator.received) == 1
        # Traffic crossed both hops to node-2.
        assert sim.topology.link("node-1", "node-2").messages_transferred == 1


class TestLoadSampling:
    def test_demand_follows_rate(self, sim, make_tuple):
        process = OperatorProcess("f", FilterOperator("true"), "node-0", sim)
        process.sample_load(0.0)
        for i in range(100):
            process.receive(make_tuple(i))
        demand = process.sample_load(10.0)
        assert demand == pytest.approx(10.0)  # 10 tuples/s x cost 1.0
        assert sim.topology.node("node-0").load == pytest.approx(10.0)
