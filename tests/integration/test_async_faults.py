"""Chaos tests for the asyncio backend (DESIGN.md §8).

The simulator's fault matrix (node, mid-window and shard kills) against
real tasks: a kill cancels hosted tasks mid-flight, recovery restarts
them, and checkpoint/restore and the shard merge close as on the oracle.
Plus what only asyncio has: backpressure (a full mailbox stalls the
producer, never drops) and pacing (``time_scale`` skews no timer).
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.dataflow.ops import AggregationSpec
from repro.dsn.ast import DsnProgram
from repro.errors import SimulationError
from repro.network.topology import Topology
from repro.runtime.backends import AsyncBackend
from repro.runtime.lifecycle import DeploymentState
from repro.scenario import build_stack, sharded_aggregation_flow
from repro.sensors.physical import temperature_sensor
from repro.stt.spatial import Point
from tests.builders import pipeline

#: Wall budget per run: these horizons take ~1s; 60s means wedged.
MAX_WALL = 60.0


def blocking_flow() -> DsnProgram:
    """temperature -> 600s AVG window -> collector (checkpointable)."""
    return pipeline("chaos", ("work", AggregationSpec(
        interval=600.0, attributes=("temperature",), function="AVG")),
        source="temp")


def async_stack(leaf_count: int = 4, max_wall: float = MAX_WALL, **kwargs):
    backend = AsyncBackend(topology=Topology.star(leaf_count=leaf_count),
                           max_wall=max_wall, **kwargs)
    return build_stack(hot=True, seed=11, backend=backend), backend


def attach_burst_stations(stack) -> None:
    """Three extra temperature stations that publish in lock-step: same
    node, same period, same wire size (equal-length ids)."""
    for name in ("a", "b", "c"):
        temperature_sensor(
            f"burst-temp-{name}", Point(34.70, 135.50), "edge-3", seed=11,
        ).attach(stack.broker_network, stack.clock)


def sink_rows(deployment, sink="out") -> list:
    return [(t.source, t.stamp.time, dict(t.payload))
            for t in deployment.collected(sink)]


class TestTaskCancellation:
    """Killing a node cancels its hosted asyncio tasks mid-window; the
    detector + SCN re-placement must restore the checkpoint and resume."""

    def test_mid_window_kill_restores_checkpoint_no_duplicate_flush(self):
        stack, backend = async_stack()
        with stack:
            deployment = stack.executor.deploy(blocking_flow())
            process = deployment.process("work")
            host = backend._hosts[id(process)]
            assert host.alive and host.task is not None
            stack.run_until(900.0)  # halfway through the 600-1200 window
            victim = process.node_id
            stack.netsim.kill_node(victim)
            # The task was cancelled with the window state in flight.
            assert not host.alive
            stack.run_until(1500.0)  # detector: 4 x 30s silence
            assert process.node_id != victim
            assert process.restores >= 1
            restored = [r for r in stack.executor.monitor.logs
                        if r.event == "checkpoint-restored"]
            assert restored
            # The restored snapshot predates the kill.
            snapshot_time = float(
                restored[0].detail.split("t=")[1].split("s")[0])
            assert snapshot_time <= 900.0
            # The replacement process got a fresh live task.
            new_host = backend._hosts[id(process)]
            assert new_host.alive and new_host.task is not None
            stack.run_until(3600.0)
            collected = deployment.collected("out")
            assert collected
            # No duplicate flush: every closed window leaves exactly one
            # aggregate per (source, window-end) at the sink.
            seen = set()
            for tuple_ in collected:
                key = (tuple_.source, tuple_.stamp.time)
                assert key not in seen, f"window flushed twice: {key}"
                seen.add(key)

    def test_revive_restarts_cancelled_tasks(self):
        stack, backend = async_stack()
        with stack:
            deployment = stack.executor.deploy(blocking_flow())
            process = deployment.process("work")
            stack.run_until(300.0)
            victim = process.node_id
            stack.netsim.kill_node(victim)
            assert not backend._hosts[id(process)].alive
            # Revive inside the detector's patience: no re-placement, the
            # same process's task comes back on the same node.
            stack.netsim.revive_node(victim)
            assert backend._hosts[id(process)].alive
            stack.run_until(3600.0)
            assert process.node_id == victim
            assert deployment.collected("out")


def _stack_on(backend_name: str):
    if backend_name == "sim":
        return build_stack(hot=True, seed=11), None
    return async_stack()


class TestKillInsideARelayedEpoch:
    """A kill scheduled from an operator's receive fires in the epoch the
    receiving host relays, even when that host is on the dead node."""

    @pytest.mark.parametrize("victim", ["work", "out"])
    def test_run_completes_and_matches_the_simulator(self, victim):
        outputs = {}
        for backend_name in ("sim", "async"):
            stack, backend = _stack_on(backend_name)
            with stack:
                attach_burst_stations(stack)  # ``work`` is woken, so relays
                deployment = stack.executor.deploy(blocking_flow())
                work = deployment.process("work")
                node = deployment.process(victim).node_id
                armed, killed_in = [True], []

                def kill():
                    if backend is not None:
                        killed_in.append(asyncio.current_task(backend._loop))
                    stack.netsim.kill_node(node)

                on_tuple = work.operator.on_tuple

                def receive_then_kill(tuple_, port=0):
                    if armed and stack.clock.now >= 900.0:
                        armed.clear()
                        stack.clock.schedule(0.0, kill)
                    return on_tuple(tuple_, port=port)

                work.operator.on_tuple = receive_then_kill
                if backend is not None:
                    receiver = backend._hosts[id(work)].task
                stack.run_until(3600.0)
                assert not armed
                if backend is not None:
                    assert killed_in == [receiver]  # it relayed the kill
                outputs[backend_name] = sorted(
                    (t.source, t.stamp.time, repr(dict(t.payload)))
                    for t in deployment.collected("out"))
        assert outputs["async"]
        assert outputs["async"] == outputs["sim"]


class TestProcessErrors:
    """An exception escaping a hosted process raises from ``run_until`` on
    both backends; on asyncio, left in the task, it would kill the task,
    strand the barrier and wedge the run."""

    @pytest.mark.parametrize("backend_name", ["sim", "async"])
    def test_sink_error_raises_from_run_until(self, backend_name):
        stack, _ = _stack_on(backend_name)
        with stack:
            deployment = stack.executor.deploy(blocking_flow())

            def broken(tuple_, port=0):
                raise RuntimeError("sink broke")

            deployment.process("out").operator._process = broken
            with pytest.raises(RuntimeError, match="sink broke"):
                stack.run_until(3600.0)
            assert stack.clock.now <= 1200.0  # the first flush raised


class TestBackpressure:
    """A full bounded mailbox suspends the producer; nothing is dropped."""

    def test_tiny_mailbox_stalls_producer_without_drops(self):
        # Three stations on one node report on the same instant with
        # equal-sized readings, so their lone messages cross the same
        # route and land on the aggregation process together: more
        # same-instant messages than a 1-slot mailbox holds, so the
        # poster must wait for the consumer's task to make room.  (The
        # AVG's own flush no longer does it: one flush is one message.)
        def run(**options):
            stack, backend = async_stack(**options)
            with stack:
                attach_burst_stations(stack)
                deployment = stack.executor.deploy(
                    sharded_aggregation_flow(stack))
                stack.run_until(2.0 * 3600.0)
                return backend, stack.netsim.stats, sink_rows(
                    deployment, "averages")

        backend, stats, squeezed = run(mailbox_capacity=1)
        assert backend.backpressure_stalls > 0
        assert stats.messages_dropped == 0
        # Everything whose delivery instant arrived was delivered; the only
        # sent-vs-delivered gap is messages still crossing a link (0.002 s
        # latency) when the horizon cut the run.
        assert stats.messages_sent - stats.messages_delivered <= 10
        assert squeezed
        # Capacity pressure must not change the logical output: the same
        # run with a roomy mailbox produces the identical sink contents.
        roomy, _, baseline = run()
        assert roomy.backpressure_stalls == 0
        assert sorted(squeezed, key=repr) == sorted(baseline, key=repr)

    def test_default_capacity_still_counts_zero_drops(self):
        stack, backend = async_stack()
        with stack:
            deployment = stack.executor.deploy(blocking_flow())
            stack.run_until(3600.0)
            assert stack.netsim.stats.messages_dropped == 0
            assert deployment.collected("out")


class TestShardKill:
    """Killing one shard's node must not wedge the merge epoch protocol."""

    def test_shard_kill_merge_still_closes(self):
        stack, backend = async_stack()
        with stack:
            flow = sharded_aggregation_flow(stack)
            deployment = stack.executor.deploy(flow, shards=4)
            group = next(iter(deployment.shard_groups.values()))
            stack.run_until(1500.0)
            before = len(deployment.collected("averages"))
            assert before > 0  # windows already closing pre-fault
            victim = group.members[1].node_id
            stack.netsim.kill_node(victim)
            stack.run_until(2400.0)  # detector fires, shard re-placed
            assert group.members[1].node_id != victim
            assert deployment.state is DeploymentState.RUNNING
            # Post-recovery windows keep closing through the merge: the
            # epoch protocol did not deadlock on the dead shard's silence.
            stack.run_until(2.0 * 3600.0)
            after = deployment.collected("averages")
            assert len(after) > before
            latest = max(t.stamp.time for t in after)
            assert latest >= 2400.0

    def test_merge_kill_recovers_pending_epochs(self):
        # A wider star: the merge needs a leaf of its own — killing the
        # hub would sever every spoke (a topology fault, not a task one).
        stack, backend = async_stack(leaf_count=6)
        with stack:
            flow = sharded_aggregation_flow(stack)
            deployment = stack.executor.deploy(flow, shards=4)
            group = next(iter(deployment.shard_groups.values()))
            stack.run_until(1450.0)
            merge = group.merge
            occupied = {m.node_id for m in group.members} | {"hub"}
            spare = next(
                node.node_id for node in stack.topology.live_nodes()
                if node.node_id not in occupied
            )
            merge.move_to(spare)
            # The move re-hosted the merge's task on the async backend.
            assert backend._hosts[id(merge)].alive
            stack.netsim.kill_node(spare)
            assert not backend._hosts[id(merge)].alive
            stack.run_until(2400.0)
            assert merge.node_id != spare
            assert merge.restores >= 1
            stack.run_until(2.0 * 3600.0)
            after = deployment.collected("averages")
            assert after
            # Windows kept closing through the replacement merge.
            assert max(t.stamp.time for t in after) >= 2400.0


class TestPacingAndTimerSkew:
    """``time_scale`` slows wall execution without skewing logical timers."""

    def test_paced_run_matches_free_run_and_takes_wall_time(self):
        def run(**options):
            stack, _ = async_stack(**options)
            with stack:
                deployment = stack.executor.deploy(blocking_flow())
                start = time.monotonic()
                stack.run_until(600.0)
                return time.monotonic() - start, sink_rows(deployment)

        _, free = run()
        # 600 virtual seconds at 1200 virtual-seconds-per-wall-second:
        # at least ~0.5s of wall pacing, and the identical sink output —
        # flush timers fire at their logical instants regardless of the
        # wall schedule (no timer skew under pacing).
        elapsed, paced = run(time_scale=1200.0)
        assert elapsed >= 0.4
        assert sorted(free, key=repr) == sorted(paced, key=repr)

    def test_wall_budget_trips_on_wedged_run(self):
        stack, _ = async_stack(max_wall=0.0)
        with stack:
            stack.executor.deploy(blocking_flow())
            # Any epoch over a zero wall budget must raise, not hang.
            with pytest.raises(SimulationError, match="wall budget"):
                stack.run_until(3600.0)
