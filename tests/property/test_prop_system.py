"""Property-based tests on system-level invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.netsim import NetworkSimulator
from repro.network.topology import Topology
from repro.pubsub.broker import BrokerNetwork
from repro.pubsub.stamping import backfill_stamp
from repro.pubsub.subscription import SubscriptionFilter
from repro.streams.tuple import SensorTuple
from repro.stt.event import SttStamp
from repro.stt.spatial import Point
from repro.stt.temporal import align_instant
from repro.warehouse.loader import EventWarehouse
from tests.unit.pubsub.test_registry import make_metadata


class TestNetsimConservation:
    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2),
                      st.floats(min_value=0.0, max_value=1e4)),
            min_size=1, max_size=30,
        )
    )
    @settings(max_examples=60)
    def test_every_message_accounted(self, sends):
        """sent == delivered + dropped once the clock drains."""
        sim = NetworkSimulator(topology=Topology.line(3))
        for src, dst, size in sends:
            sim.send(f"node-{src}", f"node-{dst}", None, size, lambda _p: None)
        sim.clock.run()
        stats = sim.stats
        assert stats.messages_sent == len(sends)
        assert stats.messages_delivered + stats.messages_dropped == len(sends)
        assert stats.messages_dropped == 0  # healthy network drops nothing

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=20),
           st.integers(0, 2))
    @settings(max_examples=40)
    def test_dead_node_messages_all_dropped_or_delivered(self, sources, dead):
        sim = NetworkSimulator(topology=Topology.line(3))
        sim.topology.node(f"node-{dead}").fail()
        delivered = []
        for src in sources:
            sim.send(f"node-{src}", f"node-{dead}", None, 10.0,
                     delivered.append)
        sim.clock.run()
        stats = sim.stats
        assert stats.messages_delivered + stats.messages_dropped == len(sources)
        assert delivered == []  # nothing reaches a dead node


class TestPubSubInvariants:
    sensor_types = st.lists(
        st.sampled_from(["temperature", "rain", "twitter"]),
        min_size=1, max_size=12,
    )

    @given(sensor_types)
    @settings(max_examples=40)
    def test_routes_match_filters_exactly(self, types):
        net = BrokerNetwork()
        seen = []
        net.subscribe("n1", SubscriptionFilter(sensor_type="rain"),
                      seen.append)
        metadatas = []
        for index, sensor_type in enumerate(types):
            metadata = make_metadata(f"s{index}", sensor_type)
            net.publish(metadata)
            metadatas.append(metadata)
        for metadata in metadatas:
            routed = net._routes.get(metadata.sensor_id, [])
            if metadata.sensor_type == "rain":
                assert len(routed) == 1
            else:
                assert routed == []

    @given(sensor_types)
    @settings(max_examples=40)
    def test_delivery_count_equals_matching_publications(self, types):
        net = BrokerNetwork()
        seen = []
        net.subscribe("n1", SubscriptionFilter(sensor_type="rain"),
                      seen.append)
        expected = 0
        for index, sensor_type in enumerate(types):
            metadata = make_metadata(f"s{index}", sensor_type)
            net.publish(metadata)
            reading = backfill_stamp({"v": 1.0}, metadata, now=float(index))
            net.publish_data(metadata.sensor_id, reading)
            if sensor_type == "rain":
                expected += 1
        assert len(seen) == expected


class TestWarehouseInvariants:
    temps = st.lists(
        st.floats(min_value=-30.0, max_value=45.0, allow_nan=False),
        min_size=1, max_size=50,
    )

    @given(temps)
    @settings(max_examples=50)
    def test_rollup_counts_partition_facts(self, values):
        warehouse = EventWarehouse()
        for index, value in enumerate(values):
            warehouse.load(SensorTuple(
                payload={"temperature": value},
                stamp=SttStamp(time=index * 1800.0,
                               location=Point(34.69, 135.50),
                               themes=("weather/temperature",)),
                source="s",
                seq=index,
            ))
        rows = warehouse.query().rollup_time("hour", "temperature", "count")
        assert sum(int(row.value) for row in rows) == len(values)

    @given(temps)
    @settings(max_examples=50)
    def test_rollup_avg_matches_direct_mean_per_granule(self, values):
        import numpy as np

        warehouse = EventWarehouse()
        by_hour: dict[float, list[float]] = {}
        for index, value in enumerate(values):
            time = index * 1800.0
            warehouse.load(SensorTuple(
                payload={"temperature": value},
                stamp=SttStamp(time=time, location=Point(34.69, 135.50)),
                source="s",
                seq=index,
            ))
            by_hour.setdefault(align_instant(time, "hour"), []).append(value)
        rows = warehouse.query().rollup_time("hour", "temperature", "avg")
        assert len(rows) == len(by_hour)
        for row in rows:
            assert np.isclose(row.value, np.mean(by_hour[row.group[0]]))
