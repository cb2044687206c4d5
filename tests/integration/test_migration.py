"""Integration test: workload-aware migration under overload.

Figure 3's monitor shows "which node is in charge of executing an
operation and when the assignment changes" — this test drives the whole
loop: overload -> SCN decision -> process move -> monitor log -> stream
continuity.  A second loop moves a *key* rather than a process: a forced
migration and split of a sharded aggregation's hot key must not hold the
sink's window closes back by more than one interval.
"""

import pytest

from repro.dataflow.graph import Dataflow
from repro.dataflow.ops import AggregationSpec, FilterSpec
from repro.dsn.scn import ScnController
from repro.network.netsim import NetworkSimulator
from repro.network.topology import Topology
from repro.pubsub.broker import BrokerNetwork
from repro.pubsub.registry import SensorMetadata
from repro.pubsub.subscription import SubscriptionFilter
from repro.runtime.executor import Executor
from repro.runtime.rebalance import RebalanceConfig
from repro.scenario import build_stack
from repro.schema.schema import StreamSchema
from repro.streams.tuple import SensorTuple
from repro.stt.event import SttStamp
from repro.stt.spatial import Point


@pytest.fixture
def deployed():
    stack = build_stack(rebalance_interval=120.0)
    flow = Dataflow("migratory")
    src = flow.add_source(SubscriptionFilter(sensor_type="temperature"),
                          node_id="src")
    keep = flow.add_operator(FilterSpec("temperature > -100"), node_id="keep")
    out = flow.add_sink("collector", node_id="out")
    flow.connect(src, keep)
    flow.connect(keep, out)
    deployment = stack.executor.deploy(flow)
    stack.run_until(600.0)  # establish live rates
    return stack, deployment


class TestMigrationLoop:
    def test_full_cycle(self, deployed):
        stack, deployment = deployed
        origin = deployment.process("keep").node_id

        # Saturate the hosting node with an external workload.
        stack.topology.node(origin).register_process("external-hog",
                                                     demand=5000.0)
        stack.run_until(1800.0)

        # The SCN moved the process and the monitor logged it.
        moved = deployment.process("keep").node_id
        changes = [c for c in stack.executor.monitor.assignment_log
                   if c.process_id == "migratory:keep"]
        assert changes
        assert changes[0].from_node == origin
        assert moved == changes[-1].to_node
        assert "utilization" in changes[0].reason

    def test_stream_survives_migration(self, deployed):
        stack, deployment = deployed
        origin = deployment.process("keep").node_id
        stack.topology.node(origin).register_process("external-hog",
                                                     demand=5000.0)
        stack.run_until(1800.0)
        count_at_move = len(deployment.collected("out"))
        stack.run_until(5400.0)
        assert len(deployment.collected("out")) > count_at_move

    def test_monitor_flags_suffering_node_before_move(self, deployed):
        stack, deployment = deployed
        origin = deployment.process("keep").node_id
        stack.topology.node(origin).register_process("external-hog",
                                                     demand=5000.0)
        assert origin in stack.executor.monitor.suffering_nodes()

    def test_placement_map_updated(self, deployed):
        stack, deployment = deployed
        origin = deployment.process("keep").node_id
        stack.topology.node(origin).register_process("external-hog",
                                                     demand=5000.0)
        stack.run_until(1800.0)
        assert deployment.placements["keep"].node_id \
            == deployment.process("keep").node_id

    def test_old_node_released(self, deployed):
        stack, deployment = deployed
        origin = deployment.process("keep").node_id
        stack.topology.node(origin).register_process("external-hog",
                                                     demand=5000.0)
        stack.run_until(1800.0)
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
    SITE = Point(34.69, 135.50)

    def test_hot_key_handoff_holds_a_flush_one_interval_at_most(self):
        interval, shards = self.INTERVAL, self.SHARDS
        topology = Topology()
        topology.add_node("hub")
        netsim = NetworkSimulator(topology=topology)
        network = BrokerNetwork(netsim=netsim)
        executor = Executor(
            netsim, network, scn=ScnController(topology),
            rebalance_config=RebalanceConfig(imbalance_ratio=float("inf")),
        )
        network.publish(SensorMetadata(
            sensor_id="pause-temp",
            sensor_type="temperature",
            schema=StreamSchema.build(
                {"temperature": "float", "station": "str"},
                themes=("weather/temperature",),
            ),
            frequency=1.0 / self.FEED_EVERY,
            location=self.SITE,
            node_id="hub",
        ))
        flow = Dataflow("pause")
        source = flow.add_source(
            SubscriptionFilter(sensor_type="temperature"), node_id="src")
        agg = flow.add_operator(
            AggregationSpec(interval=interval, attributes=("temperature",),
                            function="AVG", group_by="station"),
            node_id="agg",
        )
        sink = flow.add_sink("collector", node_id="out")
        flow.connect(source, agg)
        flow.connect(agg, sink)
        deployment = executor.deploy(flow, shards={"agg": shards}, elastic=True)

        rebalancer = deployment.rebalancers["agg"]
        assignment = deployment.shard_groups["agg"].assignment

        def migrate():
            donor = assignment.owner_of(("st-hot",))
            rebalancer.executor.schedule_migration(
                ("st-hot",), donor, (donor + 1) % shards)

        def split():
            rebalancer.executor.schedule_split(("st-hot",), tuple(range(shards)))

        clock = netsim.clock
        clock.schedule_at(2.5 * interval, migrate)
        clock.schedule_at(5.5 * interval, split)
        end = self.EPOCHS * interval
        for i in range(int(end / self.FEED_EVERY)):
            tuple_ = SensorTuple(
                payload={"station": "st-hot" if i % 5 else f"st-{i % 7}",
                         "temperature": 15.0 + (i % 13)},
                stamp=SttStamp(time=i * self.FEED_EVERY, location=self.SITE),
                source="pause-temp",
                seq=i,
            )
            clock.schedule_at(
                i * self.FEED_EVERY,
                lambda t=tuple_: network.publish_data("pause-temp", t))
        clock.run_until(end + interval)
        closes = sorted({t.stamp.time for t in deployment.collected("out")})
        gaps = [b - a for a, b in zip(closes, closes[1:])]
        assert max(gaps) / interval <= 2.0
        assert [
            (round(e.time, 6), e.kind) for e in executor.monitor.migration_log
        ] == [(180.000001, "migrate"), (360.000001, "split")]
        assert len(closes) == self.EPOCHS
