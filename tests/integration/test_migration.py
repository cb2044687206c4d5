"""Integration test: workload-aware migration under overload (Figure 3).

Overload -> SCN decision -> process move -> monitor log -> stream
continuity.  A forced migration and split of a sharded aggregation's hot
key holds the sink's window closes back by at most one interval.
"""

import pytest

from repro.dataflow.ops import AggregationSpec, FilterSpec
from repro.runtime.rebalance import RebalanceConfig, RebalanceDecision
from repro.scenario import build_stack
from tests.builders import executor_stack, pipeline, reading, sensor_metadata


@pytest.fixture
def overloaded():
    """Live rates established, then the node hosting ``keep`` saturated
    with an external workload; returns the stack, deployment and node."""
    stack = build_stack(rebalance_interval=120.0)
    deployment = stack.executor.deploy(pipeline(
        "migratory", ("keep", FilterSpec("temperature > -100"))))
    stack.run_until(600.0)
    origin = deployment.process("keep").node_id
    stack.topology.node(origin).register_process("external-hog", demand=5000.0)
    return stack, deployment, origin


@pytest.fixture
def migrated(overloaded):
    overloaded[0].run_until(1800.0)
    return overloaded


class TestMigrationLoop:
    def test_full_cycle(self, migrated):
        stack, deployment, origin = migrated
        # The SCN moved the process and the monitor logged it.
        moved = deployment.process("keep").node_id
        changes = [c.facts for c in stack.executor.monitor.records("reassigned")
                   if c.source == "migratory:keep"]
        assert changes
        assert changes[0]["from_node"] == origin
        assert moved == changes[-1]["to_node"]
        assert "utilization" in changes[0]["reason"]

    def test_stream_survives_migration(self, migrated):
        stack, deployment, _ = migrated
        count_at_move = len(deployment.collected("out"))
        stack.run_until(5400.0)
        assert len(deployment.collected("out")) > count_at_move

    def test_monitor_flags_suffering_node_before_move(self, overloaded):
        stack, _, origin = overloaded
        assert origin in stack.executor.monitor.suffering_nodes()

    def test_placement_map_updated(self, migrated):
        _, deployment, _ = migrated
        assert deployment.placements["keep"].node_id \
            == deployment.process("keep").node_id

    def test_old_node_released(self, migrated):
        stack, _, origin = migrated
        assert "migratory:keep" not in stack.topology.node(origin).processes


class TestKeyHandoffPause:
    """A forced migration at 2.5 intervals and a forced split at 5.5, on
    an 8-way elastic aggregation whose policy never acts on its own.
    The barrier protocol may hold a flush for one extra interval at most;
    on the virtual clock the gaps are exact, not sampled."""

    INTERVAL = 60.0
    EPOCHS = 10
    SHARDS = 8
    FEED_EVERY = 2.0

    def test_hot_key_handoff_holds_a_flush_one_interval_at_most(self):
        interval, shards = self.INTERVAL, self.SHARDS
        netsim, network, executor = executor_stack(
            None, sensor_metadata("pause-temp", frequency=1 / self.FEED_EVERY),
            rebalance_config=RebalanceConfig(imbalance_ratio=float("inf")))
        flow = pipeline("pause", ("agg", AggregationSpec(
            interval=interval, attributes=("temperature",), function="AVG",
            group_by="station")))
        deployment = executor.deploy(flow, shards={"agg": shards}, elastic=True)

        rebalancer = deployment.rebalancers["agg"]
        assignment = deployment.shard_groups["agg"].assignment

        def migrate():
            donor = assignment.owner_of(("st-hot",))
            rebalancer.executor.schedule(RebalanceDecision(
                "migrate", ("st-hot",), donor, (donor + 1) % shards))

        def split():
            rebalancer.executor.schedule(RebalanceDecision(
                "split", ("st-hot",), 0, replicas=tuple(range(shards))))

        clock = netsim.clock
        clock.schedule_at(2.5 * interval, migrate)
        clock.schedule_at(5.5 * interval, split)
        end = self.EPOCHS * interval
        for i in range(int(end / self.FEED_EVERY)):
            tuple_ = reading(
                "pause-temp", i, i * self.FEED_EVERY,
                station="st-hot" if i % 5 else f"st-{i % 7}",
                temperature=15.0 + (i % 13))
            clock.schedule_at(
                i * self.FEED_EVERY,
                lambda t=tuple_: network.publish_data("pause-temp", t))
        clock.run_until(end + interval)
        closes = sorted({t.stamp.time for t in deployment.collected("out")})
        gaps = [b - a for a, b in zip(closes, closes[1:])]
        assert max(gaps) / interval <= 2.0
        assert [
            (round(e.time, 6), e.event)
            for e in executor.monitor.records("key-migrate", "key-split")
        ] == [(180.000001, "key-migrate"), (360.000001, "key-split")]
        assert len(closes) == self.EPOCHS
