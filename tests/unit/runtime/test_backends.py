"""Unit tests for the execution-backend seam."""

from __future__ import annotations

import asyncio
from functools import partial
from itertools import product

import pytest

from repro.errors import SimulationError, StreamLoaderError
from repro.network.netsim import NetworkSimulator
from repro.network.topology import Topology
from repro.runtime.backends import (
    AsyncBackend,
    ExecutionBackend,
    SimBackend,
    backend_from_name,
    live_backends,
)
from repro.runtime.process import OperatorProcess
from repro.scenario import build_stack
from repro.streams.filter import FilterOperator
from repro.streams.sink import ListSink


def async_backend(**kwargs) -> AsyncBackend:
    """An asyncio backend on a two-leaf star, wall-bounded at 10 s."""
    return AsyncBackend(topology=Topology.star(leaf_count=2), max_wall=10.0,
                        **kwargs)


class TestBackendRegistry:
    def test_names_resolve(self):
        sim = backend_from_name("sim", topology=Topology.star(leaf_count=2))
        assert sim.name == "sim"
        with backend_from_name("async", topology=Topology.star(
                leaf_count=2)) as asy:
            assert asy.name == "async"

    def test_unknown_name_rejected(self):
        with pytest.raises(StreamLoaderError, match="unknown backend"):
            backend_from_name("threads")

    def test_transport_is_self_describing(self):
        topo = Topology.star(leaf_count=2)
        assert backend_from_name("sim", topology=topo).transport.backend_name == "sim"
        with AsyncBackend(topology=topo) as asy:
            assert asy.transport.backend_name == "async"


class TestSimBackend:
    def test_wraps_existing_netsim_unchanged(self):
        netsim = NetworkSimulator(topology=Topology.star(leaf_count=2))
        backend = SimBackend(netsim)
        assert backend.transport is netsim
        assert backend.clock is netsim.clock
        assert backend.topology is netsim.topology

    def test_run_until_drives_the_sim_clock(self):
        backend = SimBackend(topology=Topology.star(leaf_count=2))
        fired = []
        backend.clock.schedule(5.0, lambda: fired.append(backend.clock.now))
        backend.run_until(10.0)
        assert fired == [5.0]
        assert backend.clock.now == 10.0

    def test_host_process_is_a_noop(self):
        backend = SimBackend(topology=Topology.star(leaf_count=2))
        backend.host_process(object())  # nothing to do, nothing to raise
        backend.close()  # idempotent no-op
        backend.close()


class TestAsyncBackendLifecycle:
    def test_timers_fire_at_logical_instants(self):
        with async_backend() as backend:
            fired = []
            backend.clock.schedule(5.0, lambda: fired.append(backend.clock.now))
            backend.clock.schedule(1.0, lambda: fired.append(backend.clock.now))
            backend.run_until(10.0)
            assert fired == [1.0, 5.0]
            assert backend.clock.now == 10.0

    def test_clock_run_until_delegates_to_backend(self):
        with async_backend() as backend:
            fired = []
            backend.clock.schedule(1.0, lambda: fired.append(True))
            backend.clock.run_until(2.0)
            assert fired == [True]

    def test_sync_stepping_refused(self):
        with async_backend() as backend:
            with pytest.raises(SimulationError, match="run_until"):
                backend.clock.run()
            with pytest.raises(SimulationError, match="run_until"):
                backend.clock.step()

    def test_running_backwards_refused(self):
        with async_backend() as backend:
            backend.run_until(10.0)
            with pytest.raises(SimulationError, match="backwards"):
                backend.run_until(5.0)

    def test_close_is_idempotent_and_deregisters(self):
        backend = AsyncBackend(topology=Topology.star(leaf_count=2))
        assert backend in live_backends()
        backend.close()
        assert backend.closed
        assert backend not in live_backends()
        backend.close()  # second close is a no-op
        with pytest.raises(SimulationError, match="closed"):
            backend.run_until(1.0)

    def test_close_unshadows_every_hosted_process(self):
        backend = async_backend()
        process = _FakeProcess()
        backend.host_process(process)
        backend.close()
        process.receive("after close")  # handled, not staged
        assert process.received == ["after close"]
        assert not backend._staged_mail

    def test_wall_clock_exposed(self):
        with async_backend() as backend:
            first = backend.clock.wall_now
            assert first >= 0.0
            assert backend.clock.wall_now >= first

    def test_epochs_pass_scheduled_args(self):
        with async_backend() as backend:
            calls = []
            backend.clock.schedule(1.0, lambda a, b: calls.append((a, b)), 1, 2)
            backend.clock.schedule_at(1.0, calls.append, "same instant")
            backend.run_until(2.0)
            assert calls == [(1, 2), "same instant"]

    def test_zero_delay_cascade_guard(self):
        with async_backend() as backend:
            def reschedule():
                backend.clock.schedule(0.0, reschedule)

            backend.clock.schedule(1.0, reschedule)
            with pytest.raises(SimulationError, match="events"):
                backend.run_until(2.0, max_events=1000)


class _FakeProcess:
    """The surface AsyncBackend hosts: the receive pair plus identity."""

    def __init__(self, node_id="edge-1", on_receive=lambda _: None,
                 backend=None):
        self.process_id = "fake"
        self.node_id = node_id
        self.received = []
        self._on_receive = on_receive
        if backend is not None:
            backend.host_process(self)

    def receive(self, tuple_, port=0):
        self.received.append(tuple_)
        self._on_receive(tuple_)


def _send_at(backend, process, when, count):
    """At ``when``, send ``count`` equal-size messages edge-0 -> process;
    they share one route, so one delivery instant."""
    def burst():
        for i in range(count):
            backend.transport.send(
                "edge-0", process.node_id, i, 10.0, process.receive)
    backend.clock.schedule_at(when, burst)


def _record_calls(owner, name, note=lambda *args: None):
    """Append ``note(*args)`` to the returned list on each later call of
    ``owner.<name>``."""
    calls, method = [], getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append(note(*args))
        return method(*args, **kwargs)

    setattr(owner, name, recording)
    return calls


def _loop_calls(name, epochs, per_epoch, hosts=1):
    """Calls of the event loop's ``name`` while ``epochs`` epochs each mail
    ``per_epoch`` messages to ``hosts`` of three parked processes in turn."""
    with async_backend() as backend:
        processes = [_FakeProcess(backend=backend) for _ in range(3)]
        backend.run_until(0.5)  # the host tasks start and park
        times = [0, 0, 0]  # epochs that mail each process
        for i, j in product(range(epochs), range(hosts)):
            times[(i + j) % 3] += 1
            _send_at(backend, processes[(i + j) % 3], 1.0 + i, per_epoch)
        calls = _record_calls(backend._loop, name)
        backend.run_until(1.0 + epochs)
        for host, n in zip(backend._hosts.values(), times):
            assert host.process.received == list(range(per_epoch)) * n
            assert host.high_water == (per_epoch if n else 0)
        return len(calls)


_call_soons = partial(_loop_calls, "call_soon", 1)
_turns = partial(_loop_calls, "_run_once")


class TestMailbox:
    """One bounded deque per process, one task wake per burst."""

    def test_capacity_below_one_rejected(self):
        # A mailbox bounded below 1 could never accept a message: the
        # first post would stall forever.
        for capacity in (0, -1):
            with pytest.raises(SimulationError, match=str(capacity)):
                AsyncBackend(mailbox_capacity=capacity)
        assert not live_backends()

    def test_same_instant_burst_costs_one_wake(self):
        assert _call_soons(2) == _call_soons(64)

    def test_lone_delivery_is_handled_in_place_without_a_wake(self):
        # So is one item each for three idle hosts.
        assert _call_soons(1) == _call_soons(1, hosts=3) == _call_soons(0)

    def test_lone_delivery_raising_reaches_run_until_as_on_the_sim(self):
        # An idle host mailed in the same epoch still handles its item.
        for name, mailed in product(("sim", "async"), (1, 2)):
            with backend_from_name(name, Topology.star(leaf_count=2),
                                   max_wall=10.0) as backend:
                pair = [_FakeProcess(on_receive=lambda _: 1 / 0),
                        _FakeProcess()]
                for process in pair[:mailed]:
                    backend.host_process(process)
                    _send_at(backend, process, 1.0, 1)
                with pytest.raises(ZeroDivisionError):
                    backend.run_until(2.0)
                backend.run_until(2.0)  # the sim stopped at the raise
                assert [len(p.received) for p in pair] == [1, mailed - 1]

    def test_lone_delivery_killing_its_own_node_matches_the_sim(self):
        # It also kills (or kills and revives) the node of a second idle
        # host mailed after it.
        def received(backend, revive):
            with backend:
                process = _FakeProcess(on_receive=lambda _: (
                    len(process.received) == 3
                    and [backend.kill_node("edge-1"),
                         revive and backend.revive_node("edge-1")]))
                for target in (process, second := _FakeProcess()):
                    backend.host_process(target)
                    for n in range(5):
                        _send_at(backend, target, 1.0 + n, 1)
                backend.run_until(9.0)
                return process.received, second.received

        for revive, (first, second) in ((False, (3, 2)), (True, (5, 5))):
            sim = SimBackend(topology=Topology.star(leaf_count=2))
            assert received(async_backend(), revive) == received(
                sim, revive) == ([0] * first, [0] * second)

    def test_lone_delivery_leaves_its_handlers_unposted_tail_to_the_driver(
            self):
        # The forwarder handles its lone message in place and mails two
        # into a 1-slot mailbox: the driver, not a host, waits for room.
        with async_backend(mailbox_capacity=1) as backend:
            target = _FakeProcess("hub", backend=backend)
            forwarder = _FakeProcess(on_receive=lambda n: (
                target.receive((n, 0)), target.receive((n, 1))),
                backend=backend)
            posters = _record_calls(backend, "_post_tail", lambda *_: (
                asyncio.current_task(backend._loop)))
            _send_at(backend, forwarder, 1.0, 1)
            backend.run_until(2.0)
            assert target.received == [(0, 0), (0, 1)]
            assert backend.backpressure_stalls == 1
            hosts = {host.task for host in backend._hosts.values()}
            assert posters and not hosts & set(posters)

    def test_full_mailbox_poster_owns_its_unposted_tail(self):
        # The driver posts 2 of 10 and waits for room; the process then
        # handles a message and flushes *its* staged mail.  If it picked
        # up the driver's remainder it would wait for room in its own
        # mailbox and the run would wedge (here: trip the wall budget).
        with async_backend(mailbox_capacity=2) as backend:
            process = _FakeProcess(backend=backend)
            _send_at(backend, process, 1.0, 10)
            backend.run_until(2.0)
            assert process.received == list(range(10))
            assert backend.backpressure_stalls > 0
            assert backend._hosts[id(process)].high_water == 2

    def test_mail_for_a_host_that_died_mid_wait_is_skipped(self):
        with async_backend(mailbox_capacity=1) as backend:
            # Handling the first message kills the process's own node
            # while the driver is suspended posting the second.
            process = _FakeProcess(
                on_receive=lambda _: backend.kill_node("edge-1"),
                backend=backend)
            _send_at(backend, process, 1.0, 3)
            backend.run_until(2.0)
            assert process.received == [0]
            assert not backend._hosts[id(process)].alive
            assert backend._inflight == 0


class TestRelay:
    """The host that empties the barrier runs the next epochs itself; the
    driver wakes only to sleep, wait for room, reap, stop or raise."""

    @staticmethod
    def _hosted(backend, *nodes):
        return [_FakeProcess(node, backend=backend) for node in nodes]

    @staticmethod
    def _relay_from(backend, when, process, message=0):
        """Mail a bystander twice, then ``process``, at ``when`` (so no item
        is handled in place): ``process``, woken last, relays next."""
        bystander = _FakeProcess("hub", backend=backend)
        for receive in (bystander.receive, bystander.receive, process.receive):
            backend.clock.schedule_at(when, receive, message)

    def test_chain_costs_one_loop_turn_per_woken_process(self):
        # One loop turn per woken task, and no turn for the driver between
        # epochs (a driver-only clock pays 2N).
        chain = 20
        assert _turns(chain, 2) - _turns(0, 2) <= chain + 2

    def test_chain_of_lone_deliveries_costs_no_loop_turn(self):
        # Each is handled where its epoch ran (one turn per epoch before),
        # and so is each epoch that mails two idle hosts one item each.
        for hosts in (1, 2):
            assert _turns(20, 1, hosts) - _turns(0, 1, hosts) <= 2

    def test_relayed_epoch_leaves_its_unposted_tail_to_the_driver(self):
        # The relayed epoch posts one of three messages into a 1-slot
        # mailbox.  The other two are the driver's: a host that picked
        # them up would wait for room in its own mailbox and wedge.
        with async_backend(mailbox_capacity=1) as backend:
            first, second = self._hosted(backend, "edge-1", "hub")
            self._relay_from(backend, 1.0, first)
            _send_at(backend, second, 2.0, 3)
            relayed = _record_calls(backend.clock, "_run_epoch", lambda *_: (
                asyncio.current_task(backend._loop)
                is backend._hosts[id(first)].task))
            backend.run_until(3.0)
            assert relayed[-1]  # the burst's delivery ran in a host
            assert second.received == [0, 1, 2]
            assert backend._hosts[id(second)].high_water == 1
            assert backend.backpressure_stalls == 1 + 2  # setup's, then ours

    def test_relayed_tail_is_first_in_line_for_room(self):
        # A relayed epoch wakes two forwarders, fills a 1-slot mailbox and
        # leaves one message to the driver; both forwarders then wait for
        # room there.  The driver queued when its tail was cut, as if it
        # had run the epoch itself, so the slots go tail, first, second.
        with async_backend(mailbox_capacity=1) as backend:
            loop, clock = backend._loop, backend.clock
            relay, target = self._hosted(backend, "edge-1", "hub")
            forwarders = [
                _FakeProcess("edge-0", on_receive=lambda _, name=name: (
                    target.receive(name)), backend=backend)
                for name in ("first", "second")
            ]
            ran_in = []
            self._relay_from(backend, 1.0, relay, "wake")
            clock.schedule_at(
                2.0, lambda: ran_in.append(asyncio.current_task(loop)))
            for process, message in ((forwarders[0], "go"),
                                     (forwarders[1], "go"),
                                     (target, "tail-0"), (target, "tail-1")):
                clock.schedule_at(2.0, process.receive, message)
            backend.run_until(3.0)
            assert ran_in == [backend._hosts[id(relay)].task]
            assert target.received == ["tail-0", "tail-1", "first", "second"]
            assert backend.backpressure_stalls == 1 + 3  # setup's, then ours

    def test_host_revived_in_its_own_relay_hands_over_to_its_new_task(self):
        with async_backend() as backend:
            loop, clock = backend._loop, backend.clock
            handled_by = []
            process, idle = (_FakeProcess(node, on_receive=lambda message: (
                handled_by.append((message, asyncio.current_task(loop)))),
                backend=backend) for node in ("edge-1", "edge-0"))
            host = backend._hosts[id(process)]
            first_task = host.task
            self._relay_from(backend, 1.0, process, "first")
            # It handles its own item and an idle host's in place.
            for target in (idle, process):
                clock.schedule_at(1.5, target.receive, "in place")
            # The epoch the process's own task relays kills and revives its
            # node, then mails it: the old task must leave that to the new.
            clock.schedule_at(2.0, backend.kill_node, "edge-1")
            clock.schedule_at(2.0, backend.revive_node, "edge-1")
            clock.schedule_at(2.0, process.receive, "second")
            backend.run_until(3.0)
            assert host.task is not first_task
            assert handled_by == [("first", first_task),
                                  *[("in place", first_task)] * 2,
                                  ("second", host.task)]

    def test_barrier_the_driver_abandoned_is_not_relayed(self):
        # What wait_for does to the driver when the wall budget runs out.
        with async_backend() as backend:
            process, = self._hosted(backend, "edge-1")
            process._on_receive = lambda _: backend._quiet.cancel()
            self._relay_from(backend, 1.0, process)
            later = []
            backend.clock.schedule_at(2.0, later.append, "epoch")
            with pytest.raises(asyncio.CancelledError):
                backend.run_until(3.0)
            assert later == []

    def test_callback_raising_in_a_relayed_epoch_reaches_run_until(self):
        with async_backend() as backend:
            process, = self._hosted(backend, "edge-1")
            ran_in = []

            def boom():
                ran_in.append(asyncio.current_task(backend._loop))
                raise RuntimeError("boom")

            self._relay_from(backend, 1.0, process)
            backend.clock.schedule_at(2.0, boom)
            with pytest.raises(RuntimeError, match="boom"):
                backend.run_until(3.0)
            assert process.received == [0]
            assert ran_in == [backend._hosts[id(process)].task]

    def test_zero_delay_cascade_guard_holds_in_a_relayed_epoch(self):
        with async_backend() as backend:
            process, = self._hosted(backend, "edge-1")
            ran_in = set()

            def reschedule():
                ran_in.add(asyncio.current_task(backend._loop))
                backend.clock.schedule(0.0, reschedule)

            self._relay_from(backend, 1.0, process)
            backend.clock.schedule_at(2.0, reschedule)
            with pytest.raises(SimulationError, match="events"):
                backend.run_until(3.0, max_events=1000)
            assert ran_in == {backend._hosts[id(process)].task}

    def test_paced_relay_never_starts_an_epoch_before_its_wall_target(self):
        scale = 20.0
        with AsyncBackend(topology=Topology.star(leaf_count=3),
                          max_wall=10.0, time_scale=scale) as backend:
            pair = self._hosted(backend, "edge-1", "edge-2")
            loop = backend._loop
            hosts = {backend._hosts[id(p)] for p in pair}
            # Two two-message deliveries a virtual microsecond apart (the
            # second is due on the wall as soon as the first is handled)
            # every 0.5 virtual seconds (25 ms on the wall: the driver sleeps).
            for i in range(4):
                _send_at(backend, pair[i % 2], 1.0 + 0.5 * (i // 2)
                         + 1e-6 * (i % 2), 2)
            starts = _record_calls(backend.clock, "_run_epoch", lambda t, _: (
                t, loop.time(), asyncio.current_task(loop)))
            backend.run_until(4.0)
            assert sum(len(p.received) for p in pair) == 8
            for deadline, wall, _ in starts:
                target = (backend._wall_base
                          + (deadline - backend._logical_base) / scale)
                assert wall >= target
            relayed = {task for *_, task in starts} & {h.task for h in hosts}
            assert relayed  # some epochs ran in a host, not the driver

    def test_flake_guard_trips_on_an_unretrieved_task_exception(self):
        from tests.conftest import backend_flake_failures

        async def fail():
            raise RuntimeError("nobody awaits me")

        with async_backend() as backend:
            task = backend._loop.create_task(fail())
            backend._loop.run_until_complete(asyncio.sleep(0))
            assert task.done()
            del task
        failures = backend_flake_failures()
        assert len(failures) == 1
        assert "never retrieved" in failures[0]
        assert "nobody awaits me" in failures[0]
        assert backend_flake_failures() == []  # drained: this test passes


class TestRouteLateBinding:
    """A route resolves its target's ``receive`` and node per message."""

    def test_route_wired_before_hosting_and_a_move_follows_both(
            self, make_tuple):
        with async_backend() as backend:
            netsim = backend.transport
            source = OperatorProcess(
                "f", FilterOperator("true"), "edge-0", netsim)
            sink = OperatorProcess("k", ListSink(), "edge-1", netsim)
            source.add_route(sink)       # wired first,
            backend.host_process(sink)   # ``receive`` shadowed afterwards,
            sink.move_to("hub")          # and the target re-homed.
            backend.clock.schedule(1.0, source.receive, make_tuple(0))
            backend.run_until(2.0)
            assert len(sink.operator.received) == 1
            # It went through the mailbox, and only as far as the hub.
            assert backend._hosts[id(sink)].high_water == 1
            links = backend.topology
            assert links.link("edge-0", "hub").messages_transferred == 1
            assert links.link("hub", "edge-1").messages_transferred == 0


class TestBackendSurfacing:
    def test_monitor_reports_mailbox_health_on_async_only(self):
        with build_stack(backend="async", attach_fleet=False) as stack:
            process = _FakeProcess(backend=stack.backend)
            _send_at(stack.backend, process, 1.0, 5)
            stack.run_until(2.0)
            health = stack.executor.monitor.report()["backend_health"]
        assert health == {"backpressure_stalls": 0,
                          "mailbox_high_water": {"fake": 5}}
        sim = build_stack(attach_fleet=False)
        assert "backend_health" not in sim.executor.monitor.report()

    def test_monitor_report_names_the_backend(self):
        with build_stack(backend="async", attach_fleet=False) as stack:
            report = stack.executor.monitor.report()
        assert report["backend"] == "async"
        assert "[async]" in stack.executor.monitor.render_dashboard()

    def test_sim_dashboard_header_unchanged(self):
        stack = build_stack(attach_fleet=False)
        report = stack.executor.monitor.report()
        assert report["backend"] == "sim"
        header = stack.executor.monitor.render_dashboard().splitlines()[0]
        assert header.endswith("==")  # no backend tag on the oracle

    def test_spans_carry_wall_stamps_only_on_async(self):
        for backend, expect_wall in (("sim", False), ("async", True)):
            with build_stack(backend=backend, attach_fleet=False,
                             observability=True) as stack:
                tracer = stack.obs.tracer
                ctx = tracer.start_trace("publish", stack.clock.now)
                spans = tracer.trace(ctx.trace_id)
                assert spans
                assert (spans[0].wall is not None) is expect_wall

    def test_executor_defaults_to_sim_backend(self):
        stack = build_stack(attach_fleet=False)
        assert isinstance(stack.executor.backend, SimBackend)
        assert isinstance(stack.backend, ExecutionBackend)
        assert stack.executor.backend.transport is stack.netsim
