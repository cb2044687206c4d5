"""Unit tests for shard groups and the shard-aware forwarding layer."""

import pytest

from repro.network.netsim import NetworkSimulator
from repro.network.topology import Topology
from repro.runtime.process import OperatorProcess
from repro.runtime.sharding import ShardGroup
from repro.streams.filter import FilterOperator
from repro.streams.shard import partition_index
from repro.streams.sink import ListSink
from repro.streams.tuple import TupleBatch


@pytest.fixture
def sim() -> NetworkSimulator:
    return NetworkSimulator(topology=Topology.star(leaf_count=2))


def make_group(sim, count=2, keys_by_port=(("station",),), with_merge=True):
    members = [
        OperatorProcess(f"member-{i}", ListSink(), "hub", sim)
        for i in range(count)
    ]
    merge = (
        OperatorProcess("merge", ListSink(), "hub", sim) if with_merge else None
    )
    group = ShardGroup(service="svc", members=members,
                       keys_by_port=keys_by_port, merge=merge)
    for process in group.processes():
        process.start()
    return group


class TestKeysForPort:
    def test_port_selects_its_entry(self, sim):
        group = make_group(sim, keys_by_port=(("left_key",), ("right_key",)))
        assert group.keys_for_port(0) == ("left_key",)
        assert group.keys_for_port(1) == ("right_key",)

    def test_port_beyond_entries_clamps_to_last(self, sim):
        group = make_group(sim, keys_by_port=(("station",),))
        assert group.keys_for_port(3) == ("station",)


class TestMemberFor:
    def test_matches_partitioner_contract(self, sim, make_tuple):
        group = make_group(sim, count=2)
        for seq in range(16):
            tuple_ = make_tuple(seq, station=f"st-{seq % 6}")
            expected = partition_index((tuple_.get("station"),), 2)
            assert group.member_for(tuple_) is group.members[expected]

    def test_port_changes_the_key(self, sim, make_tuple):
        group = make_group(sim, keys_by_port=(("station",), ("temperature",)))
        tuple_ = make_tuple(0, station="st-1", temperature=42.5)
        by_station = partition_index(("st-1",), 2)
        by_temp = partition_index((42.5,), 2)
        assert group.member_for(tuple_, port=0) is group.members[by_station]
        assert group.member_for(tuple_, port=1) is group.members[by_temp]


class TestSplit:
    def test_buckets_preserve_arrival_order(self, sim, make_tuple):
        group = make_group(sim, count=2)
        tuples = [make_tuple(seq, station=f"st-{seq % 5}") for seq in range(10)]
        pieces = group.split(tuples)
        for member, batch in pieces:
            seqs = [t.seq for t in batch.tuples]
            assert seqs == sorted(seqs)
            for tuple_ in batch.tuples:
                assert group.member_for(tuple_) is member
        assert sorted(
            t.seq for _, b in pieces for t in b.tuples) == list(range(10))

    def test_members_visited_in_shard_order(self, sim, make_tuple):
        group = make_group(sim, count=4)
        tuples = [make_tuple(seq, station=f"st-{seq}") for seq in range(32)]
        pieces = group.split(tuples)
        order = [group.members.index(member) for member, _ in pieces]
        assert order == sorted(order)

    def test_empty_buckets_omitted(self, sim, make_tuple):
        group = make_group(sim, count=4)
        tuples = [make_tuple(0, station="only-one-key")]
        pieces = group.split(tuples)
        assert len(pieces) == 1


class TestProcesses:
    def test_includes_members_and_merge(self, sim):
        group = make_group(sim, count=3)
        processes = group.processes()
        assert processes[:3] == group.members
        assert processes[3] is group.merge

    def test_merge_optional(self, sim):
        group = make_group(sim, count=2, with_merge=False)
        assert group.processes() == group.members


class TestShardedForwarding:
    """Routes whose target is a ShardGroup resolve members per tuple."""

    def make_upstream(self, sim, group):
        upstream = OperatorProcess(
            "upstream", FilterOperator("temperature > 0"), "hub", sim)
        upstream.add_route(group)
        upstream.start()
        return upstream

    def test_forward_resolves_owning_member(self, sim, make_tuple):
        group = make_group(sim, count=2)
        upstream = self.make_upstream(sim, group)
        tuples = [make_tuple(seq, station=f"st-{seq % 6}") for seq in range(12)]
        for tuple_ in tuples:
            upstream.receive(tuple_)
        sim.clock.run()
        for index, member in enumerate(group.members):
            expected = [
                t.seq for t in tuples
                if partition_index((t.get("station"),), 2) == index
            ]
            assert [t.seq for t in member.operator.received] == expected

    def test_forward_batch_splits_per_member(self, sim, make_tuple):
        group = make_group(sim, count=2)
        upstream = self.make_upstream(sim, group)
        tuples = [make_tuple(seq, station=f"st-{seq % 3}") for seq in range(9)]
        upstream.receive(TupleBatch.of(tuples))
        sim.clock.run()
        received = sorted(
            t.seq for member in group.members
            for t in member.operator.received
        )
        assert received == list(range(9))
