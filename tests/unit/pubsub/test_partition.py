"""Unit tests for the key-partitioning subscription router."""

import pytest

from repro.errors import PubSubError
from repro.network.netsim import NetworkSimulator
from repro.network.topology import Topology
from repro.pubsub.broker import BrokerNetwork
from repro.pubsub.partition import ShardRouter
from repro.pubsub.subscription import Subscription, SubscriptionFilter
from repro.streams.shard import partition_index
from repro.streams.tuple import TupleBatch
from repro.stt.spatial import Point
from tests.builders import reading as sensor_reading, sensor_metadata

SITE = Point(34.69, 135.50)


def metadata(node_id="hub"):
    return sensor_metadata("part-sensor", node_id=node_id)


def reading(seq, station):
    return sensor_reading("part-sensor", seq, float(seq), temperature=20.0,
                          station=station)


def make_router(count=3, sink=None):
    members = [
        Subscription(
            filter=SubscriptionFilter(sensor_type="temperature"),
            callback=(lambda index: lambda t: sink.append((index, t.seq)))(i)
            if sink is not None else (lambda t: None),
            node_id="hub",
        )
        for i in range(count)
    ]
    return ShardRouter(members, keys=("station",))


class TestShardRouter:
    def test_members_back_reference_the_router(self):
        router = make_router()
        assert all(member.router is router for member in router.members)

    def test_member_for_matches_partition_index(self):
        router = make_router(count=3)
        for seq in range(20):
            tuple_ = reading(seq, f"st-{seq % 7}")
            expected = partition_index((tuple_.get("station"),), 3)
            assert router.member_for(tuple_) is router.members[expected]

    def test_split_batch_preserves_arrival_order(self):
        router = make_router(count=2)
        tuples = [reading(seq, f"st-{seq % 5}") for seq in range(12)]
        batch = TupleBatch.of(tuples)
        pieces = router.split_batch(batch)
        routed = {id(sub): [t.seq for t in sub_batch.tuples]
                  for sub, sub_batch in pieces}
        for sub, sub_batch in pieces:
            assert [t.seq for t in sub_batch.tuples] == sorted(
                t.seq for t in sub_batch.tuples
            )
        # Every tuple lands in exactly one piece.
        all_seqs = sorted(seq for seqs in routed.values() for seq in seqs)
        assert all_seqs == list(range(12))

    def test_filter_mirrors_first_member(self):
        router = make_router()
        assert router.filter is router.members[0].filter


class TestSubscribeSharded:
    def make_network(self):
        netsim = NetworkSimulator(topology=Topology.star(leaf_count=2))
        network = BrokerNetwork(netsim=netsim)
        network.publish(metadata("hub"))
        return netsim, network

    def test_length_mismatch_raises(self):
        _, network = self.make_network()
        with pytest.raises(PubSubError, match="callbacks"):
            network.subscribe_sharded(
                node_ids=["hub", "hub"],
                filter_=SubscriptionFilter(sensor_type="temperature"),
                callbacks=[lambda t: None],
                keys=("station",),
            )

    def test_each_tuple_delivered_to_exactly_one_member(self):
        netsim, network = self.make_network()
        received = []
        router = network.subscribe_sharded(
            node_ids=["hub", "hub", "hub"],
            filter_=SubscriptionFilter(sensor_type="temperature"),
            callbacks=[
                (lambda index: lambda t: received.append((index, t.seq)))(i)
                for i in range(3)
            ],
            keys=("station",),
        )
        tuples = [reading(seq, f"st-{seq % 5}") for seq in range(15)]
        for tuple_ in tuples:
            network.publish_data("part-sensor", tuple_)
        netsim.clock.run()
        assert sorted(seq for _, seq in received) == list(range(15))
        for index, seq in received:
            expected = partition_index((f"st-{seq % 5}",), 3)
            assert index == expected
        assert sum(s.delivered for s in router.members) == 15

    def test_batch_publish_splits_per_member(self):
        netsim, network = self.make_network()
        batches = []
        network.subscribe_sharded(
            node_ids=["hub", "hub"],
            filter_=SubscriptionFilter(sensor_type="temperature"),
            callbacks=[lambda t: None, lambda t: None],
            keys=("station",),
            batch_callbacks=[
                (lambda index: lambda b: batches.append(
                    (index, [t.seq for t in b.tuples])
                ))(i)
                for i in range(2)
            ],
        )
        tuples = [reading(seq, f"st-{seq % 4}") for seq in range(8)]
        network.publish_batch("part-sensor", tuples)
        netsim.clock.run()
        delivered = sorted(seq for _, seqs in batches for seq in seqs)
        assert delivered == list(range(8))
        for index, seqs in batches:
            for seq in seqs:
                assert partition_index((f"st-{seq % 4}",), 2) == index

    def test_unsubscribe_member_dissolves_cleanly(self):
        netsim, network = self.make_network()
        router = network.subscribe_sharded(
            node_ids=["hub", "hub"],
            filter_=SubscriptionFilter(sensor_type="temperature"),
            callbacks=[lambda t: None, lambda t: None],
            keys=("station",),
        )
        for member in list(router.members):
            network.unsubscribe(member)
        assert router.members == []
        # Publishes after teardown route nowhere and never crash.
        network.publish_data("part-sensor", reading(0, "st-0"))
        netsim.clock.run()

    def test_paused_member_suppresses_its_partition_only(self):
        netsim, network = self.make_network()
        received = []
        router = network.subscribe_sharded(
            node_ids=["hub", "hub"],
            filter_=SubscriptionFilter(sensor_type="temperature"),
            callbacks=[
                (lambda index: lambda t: received.append(index))(i)
                for i in range(2)
            ],
            keys=("station",),
        )
        stations = [f"st-{i}" for i in range(8)]
        paused_index = 0
        router.members[paused_index].pause()
        for seq, station in enumerate(stations):
            network.publish_data("part-sensor", reading(seq, station))
        netsim.clock.run()
        expected = [
            partition_index((station,), 2)
            for station in stations
            if partition_index((station,), 2) != paused_index
        ]
        assert sorted(received) == sorted(expected)
        assert router.members[paused_index].suppressed > 0
