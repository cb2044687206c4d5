"""Unit tests for operator checkpoint/restore and the process hooks.

The recovery contract is at-most-once: a restored operator re-sees exactly
the tuples captured at snapshot time; whatever it absorbed afterwards is
lost.  These tests pin that bound at the operator level and the periodic
snapshot machinery at the process level.
"""

import pytest

from repro.errors import CheckpointError
from repro.network.netsim import NetworkSimulator
from repro.network.topology import Topology
from repro.runtime.process import OperatorProcess
from repro.streams.aggregate import AggregationOperator
from repro.streams.filter import FilterOperator
from repro.streams.join import JoinOperator
from repro.streams.trigger import TriggerOnOperator


@pytest.fixture
def sim() -> NetworkSimulator:
    return NetworkSimulator(topology=Topology.star(leaf_count=2))


class TestOperatorCheckpoint:
    def test_aggregate_restore_rewinds_to_snapshot(self, make_tuple):
        op = AggregationOperator(interval=100.0, attributes=["temperature"],
                                 function="SUM")
        for i in range(3):
            op.on_tuple(make_tuple(i, temperature=10.0))
        state = op.checkpoint()
        for i in range(3, 6):
            op.on_tuple(make_tuple(i, temperature=99.0))
        op.restore(state)
        out = op.on_timer(100.0)
        # The three post-snapshot tuples are gone: the documented bound.
        assert out[0]["sum_temperature"] == pytest.approx(30.0)

    def test_join_restore_repopulates_both_sides(self, make_tuple):
        op = JoinOperator(interval=100.0, predicate="true")
        op.on_tuple(make_tuple(0), port=0)
        op.on_tuple(make_tuple(1), port=1)
        state = op.checkpoint()
        op.on_tuple(make_tuple(2), port=0)
        op.on_tuple(make_tuple(3), port=1)
        op.restore(state)
        assert len(op.on_timer(100.0)) == 1  # 1 left x 1 right

    def test_trigger_restore_keeps_window_and_last_command(self, make_tuple):
        op = TriggerOnOperator(interval=300.0, window=3600.0,
                               condition="avg_temperature > 25",
                               targets=["rain-1"])
        commands = []
        op.control = commands.append
        for i in range(4):
            op.on_tuple(make_tuple(i, temperature=30.0, time=float(i)))
        op.on_timer(10.0)
        assert len(commands) == 1  # activated
        state = op.checkpoint()
        fresh = TriggerOnOperator(interval=300.0, window=3600.0,
                                  condition="avg_temperature > 25",
                                  targets=["rain-1"])
        fresh.control = commands.append
        fresh.restore(state)
        fresh.on_timer(310.0)
        # Condition still true but unchanged: the restored last_command
        # suppresses a duplicate activation.
        assert len(commands) == 1

    def test_checkpoint_round_trips_stats(self, make_tuple):
        op = AggregationOperator(interval=100.0, attributes=["temperature"],
                                 function="AVG")
        op.on_tuple(make_tuple(0))
        state = op.checkpoint()
        op.on_tuple(make_tuple(1))
        stats = op.stats
        op.restore(state)
        # The checkpoint carries the count; the live count never rewinds.
        assert state["stats"]["tuples_in"] == 1
        assert op.stats is stats and stats.tuples_in == 2

    def test_non_blocking_operator_checkpoints_stats_only(self, make_tuple):
        op = FilterOperator("temperature > -100")
        op.on_tuple(make_tuple(0))
        state = op.checkpoint()
        assert state["stats"]["tuples_in"] == 1
        op.restore(state)

    def test_malformed_checkpoint_rejected(self):
        op = FilterOperator("temperature > 0")
        with pytest.raises(CheckpointError):
            op.restore({"bogus": True})
        with pytest.raises(CheckpointError):
            op.restore("not a dict")


class TestProcessCheckpointing:
    def make_process(self, sim, node="edge-0", every=None):
        """A SUM window on ``node``; started, checkpointing ``every``
        seconds, when ``every`` is given."""
        op = AggregationOperator(interval=500.0, attributes=["temperature"],
                                 function="SUM")
        process = OperatorProcess("agg", op, node, sim)
        if every is not None:
            process.enable_checkpoints(every)
            process.start()
        return process

    def test_periodic_snapshots_on_the_clock(self, sim, make_tuple):
        process = self.make_process(sim, every=60.0)
        sim.clock.schedule(30.0, lambda: process.receive(make_tuple(0)))
        sim.clock.run_until(130.0)
        assert process.last_checkpoint is not None
        time, state = process.last_checkpoint
        assert time == 120.0
        assert len(state["cache"]) == 1

    def test_first_snapshot_taken_immediately(self, sim):
        process = self.make_process(sim, every=600.0)
        sim.clock.run_until(1.0)
        assert process.last_checkpoint is not None
        assert process.last_checkpoint[0] == 0.0

    def test_no_snapshot_while_node_down(self, sim):
        process = self.make_process(sim, every=60.0)
        sim.clock.run_until(1.0)
        first = process.last_checkpoint
        sim.kill_node("edge-0")
        sim.clock.run_until(300.0)
        assert process.last_checkpoint == first  # frozen at death

    def test_restore_returns_false_without_snapshot(self, sim):
        process = self.make_process(sim)
        assert process.restore_last_checkpoint() is False
        assert process.restores == 0

    def test_restore_applies_snapshot_and_counts(self, sim, make_tuple):
        process = self.make_process(sim, every=60.0)
        sim.clock.schedule(10.0, lambda: process.receive(make_tuple(0)))
        sim.clock.run_until(70.0)
        sim.clock.schedule(80.0, lambda: process.receive(make_tuple(1)))
        sim.clock.run_until(90.0)
        snapshot_len = len(process.last_checkpoint[1]["cache"])
        assert process.restore_last_checkpoint() is True
        assert process.restores == 1
        assert len(process.operator.cache) == snapshot_len

    def test_stop_cancels_checkpoint_timer(self, sim):
        process = self.make_process(sim, every=60.0)
        sim.clock.run_until(1.0)
        process.stop()
        first = process.last_checkpoint
        sim.clock.run_until(600.0)
        assert process.last_checkpoint == first
