"""Property-based tests: sharded blocking operators are semantically invisible.

DESIGN.md's §12 promise: splitting a blocking operator into N key-hashed
shard replicas changes *where* its groups accumulate, never *what* flows
downstream.  For random key distributions and shard counts — composed with
micro-batching both on and off — a sharded deployment must leave every
observable identical to the unsharded one: sink contents (payloads,
sources, seq numbers, virtual times), per-group aggregates, and retry
dead-letter audit records.  Shard checkpoints must additionally round-trip
through restore into a fresh replica.

All runs drive a single-node topology at fixed virtual times (delivery is
local and zero-latency), the same discipline as the batch-parity suite:
the merge stage's ordering guarantee is exact when envelope arrival order
is monotone in the order key, which local delivery guarantees.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.graph import Dataflow
from repro.dataflow.ops import AggregationSpec, JoinSpec
from repro.network.netsim import NetworkSimulator
from repro.network.topology import Topology
from repro.pubsub.broker import BrokerNetwork
from repro.pubsub.subscription import SubscriptionFilter
from repro.streams.shard import ShardedOperatorAdapter, partition_index
from tests.builders import executor_stack, pipeline, reading, sensor_metadata

SHARD_COUNTS = (1, 2, 4)
BATCH_SIZES = (1, 16)


def _metadata(sensor_id: str, sensor_type: str, node_id: str):
    return sensor_metadata(sensor_id, sensor_type,
                           {"value": "float", "station": "str"}, 1.0, node_id)


def _reading(sensor_id: str, seq: int, value: float, station: str):
    return reading(sensor_id, seq, float(seq) * 0.25, value=value,
                   station=station)


#: (value, station index) streams; station indexes draw from a small
#: alphabet so groups collide across shards and windows.
readings = st.lists(
    st.tuples(
        st.floats(min_value=-50.0, max_value=50.0,
                  allow_nan=False, allow_infinity=False),
        st.integers(0, 9),
    ),
    min_size=1, max_size=48,
)

functions = st.sampled_from(["AVG", "SUM", "MIN", "MAX", "COUNT"])


def _publish(network, sensor_id, tuples, batch_size):
    if batch_size == 1:
        for tuple_ in tuples:
            network.publish_data(sensor_id, tuple_)
    else:
        for start in range(0, len(tuples), batch_size):
            network.publish_batch(sensor_id, tuples[start:start + batch_size])


def _observables(deployment, sink_name):
    return [
        (t.seq, t.source, t.stamp.time, dict(t.payload))
        for t in deployment.collected(sink_name)
    ]


def _st_label(station) -> str:
    return f"st-{station}"


def _as_is(station):
    return station


def _run_aggregation(stream, function, shard_count, batch_size,
                     station_of=_st_label):
    netsim, network, executor = executor_stack(
        None, _metadata("prop-temp", "temperature", "hub"))
    flow = pipeline("shard-parity", ("agg", AggregationSpec(
        interval=7.0, attributes=("value",), function=function,
        group_by="station")))
    deployment = executor.deploy(
        flow, shards={"agg": shard_count} if shard_count > 1 else None)

    tuples = [
        _reading("prop-temp", i, value, station_of(station))
        for i, (value, station) in enumerate(stream)
    ]
    _publish(network, "prop-temp", tuples, batch_size)
    netsim.clock.run_until(60.0)
    return deployment, _observables(deployment, "out")


def _run_join(left_stream, right_stream, shard_count, batch_size,
              station_of=_st_label):
    netsim, network, executor = executor_stack(
        None, _metadata("prop-temp", "temperature", "hub"),
        _metadata("prop-hum", "humidity", "hub"))

    flow = Dataflow("shard-join-parity")
    left = flow.add_source(SubscriptionFilter(sensor_type="temperature"),
                           node_id="left")
    right = flow.add_source(SubscriptionFilter(sensor_type="humidity"),
                            node_id="right")
    join = flow.add_operator(
        JoinSpec(interval=7.0, predicate="left.station == right.station"),
        node_id="join",
    )
    sink = flow.add_sink("collector", node_id="out")
    flow.connect(left, join, port=0)
    flow.connect(right, join, port=1)
    flow.connect(join, sink)
    deployment = executor.deploy(
        flow, shards={"join": shard_count} if shard_count > 1 else None)

    left_tuples = [
        _reading("prop-temp", i, value, station_of(station))
        for i, (value, station) in enumerate(left_stream)
    ]
    right_tuples = [
        _reading("prop-hum", i, value, station_of(station))
        for i, (value, station) in enumerate(right_stream)
    ]
    _publish(network, "prop-temp", left_tuples, batch_size)
    _publish(network, "prop-hum", right_tuples, batch_size)
    netsim.clock.run_until(60.0)
    return deployment, _observables(deployment, "out")


class TestAggregationShardParity:
    @given(readings, functions, st.sampled_from(SHARD_COUNTS),
           st.sampled_from(BATCH_SIZES))
    @settings(max_examples=50, deadline=None)
    def test_sharded_aggregation_is_equivalent(self, stream, function,
                                               shard_count, batch_size):
        _, baseline = _run_aggregation(stream, function,
                                       shard_count=1, batch_size=1)
        _, sharded = _run_aggregation(
            stream, function, shard_count=shard_count, batch_size=batch_size)
        assert sharded == baseline

    @given(readings, st.sampled_from((2, 4)))
    @settings(max_examples=25, deadline=None)
    def test_shard_checkpoints_restore_into_fresh_replicas(self, stream,
                                                           shard_count):
        """Every shard's checkpoint rebuilds an identical replica."""
        deployment, _ = _run_aggregation(stream, "SUM",
                                         shard_count=shard_count, batch_size=1)
        group = deployment.shard_groups["agg"]
        for index, member in enumerate(group.members):
            snapshot = member.operator.checkpoint()
            spec = AggregationSpec(interval=7.0, attributes=("value",),
                                   function="SUM", group_by="station")
            fresh = ShardedOperatorAdapter(
                spec.build_operator(), shard_index=index,
                shard_count=shard_count,
            )
            fresh.restore(snapshot)
            assert fresh.checkpoint() == snapshot

    @given(readings, st.sampled_from((2, 4)))
    @settings(max_examples=25, deadline=None)
    def test_tuples_route_to_exactly_one_shard(self, stream, shard_count):
        """The runtime routes each tuple to the shard its key hashes to,
        so every group key accumulates on exactly one replica."""
        deployment, _ = _run_aggregation(stream, "COUNT",
                                         shard_count=shard_count, batch_size=1)
        group = deployment.shard_groups["agg"]
        expected = Counter(
            partition_index((f"st-{station}",), shard_count)
            for _, station in stream
        )
        for index, member in enumerate(group.members):
            assert member.operator.stats.tuples_in == expected[index]


class TestJoinShardParity:
    @given(readings, readings, st.sampled_from(SHARD_COUNTS),
           st.sampled_from(BATCH_SIZES))
    @settings(max_examples=40, deadline=None)
    def test_sharded_join_is_equivalent(self, left_stream, right_stream,
                                        shard_count, batch_size):
        _, baseline = _run_join(left_stream, right_stream,
                                shard_count=1, batch_size=1)
        _, sharded = _run_join(left_stream, right_stream,
                               shard_count=shard_count, batch_size=batch_size)
        assert sharded == baseline


class TestEqualKeysShareAShard:
    """``1``, ``1.0`` and ``True`` are one group and one join bucket to an
    unsharded operator, and so are ``0`` and ``-0.0``: sharded, they must
    reach one shard, or the group is emitted once per shard and the pair
    is lost between the two ports' shards."""

    def test_grouped_avg_folds_equal_keys_of_other_types(self):
        stream = [(2.0, 1), (4.0, 1.0), (6.0, True), (8.0, 0), (10.0, -0.0)]
        _, baseline = _run_aggregation(stream, "AVG", shard_count=1,
                                       batch_size=1, station_of=_as_is)
        _, sharded = _run_aggregation(stream, "AVG", shard_count=2,
                                      batch_size=1, station_of=_as_is)
        assert len(baseline) == 2
        assert sharded == baseline

    def test_join_pairs_equal_keys_of_other_types(self):
        left = [(1.0, 1), (2.0, 0)]
        right = [(3.0, 1.0), (4.0, -0.0), (5.0, True)]
        _, baseline = _run_join(left, right, shard_count=1, batch_size=1,
                                station_of=_as_is)
        _, sharded = _run_join(left, right, shard_count=2, batch_size=1,
                               station_of=_as_is)
        assert len(baseline) == 3
        assert sharded == baseline


class TestShardDeadLetterParity:
    @given(readings, st.sampled_from((2, 4)), st.sampled_from(BATCH_SIZES))
    @settings(max_examples=25, deadline=None)
    def test_retry_exhaustion_audits_each_tuple_once(self, stream,
                                                     shard_count, batch_size):
        """A dead member's retries dead-letter each routed tuple exactly
        once, at the same (seq, reason) points as an unsharded subscriber."""
        def run(shard_count: int, batch_size: int):
            netsim = NetworkSimulator(topology=Topology.line(2))
            network = BrokerNetwork(netsim=netsim)
            network.publish(_metadata("prop-temp", "temperature", "node-0"))
            if shard_count == 1:
                subscriptions = [network.subscribe(
                    "node-1", SubscriptionFilter(sensor_type="temperature"),
                    lambda tuple_: None,
                )]
            else:
                router = network.subscribe_sharded(
                    node_ids=["node-1"] * shard_count,
                    filter_=SubscriptionFilter(sensor_type="temperature"),
                    callbacks=[lambda tuple_: None] * shard_count,
                    keys=("station",),
                )
                subscriptions = router.members
            netsim.topology.node("node-1").fail()
            tuples = [
                _reading("prop-temp", i, value, f"st-{station}")
                for i, (value, station) in enumerate(stream)
            ]
            _publish(network, "prop-temp", tuples, batch_size)
            netsim.clock.run()
            letters = [
                (letter.tuple.seq, letter.reason)
                for subscription in subscriptions
                for letter in subscription.dead_letters
            ]
            return sorted(letters)

        assert run(shard_count, batch_size) == run(1, 1)
