"""Property: elastic rebalancing is semantically invisible (DESIGN.md §10).

For random uniform and 80%-hot-key streams, shard counts and migrations
forced at random epoch boundaries, an elastic deployment's sink output
(payloads, sources, seqs, virtual times) is byte-identical to the same
count's static one.  A split folds partial sums in shard order, so split
properties draw integer-valued floats; a migrated slice re-accumulates in
arrival order, so migrations take any float.  One node at fixed virtual
times, as in the shard-parity suite; the policy is off (infinite
imbalance ratio), so only the forced actions fire.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.ops import AggregationSpec
from repro.runtime.rebalance import RebalanceConfig, RebalanceDecision
from repro.streams.shard import ShardedOperatorAdapter
from tests.builders import executor_stack, pipeline, reading, sensor_metadata

SHARD_COUNTS = (2, 4, 8)
INTERVAL = 7.0
END = 60.0

#: policy neutered: only forced migrations/splits ever fire.
FORCED_ONLY = RebalanceConfig(imbalance_ratio=float("inf"))


def _reading(seq: int, value: float, station: str):
    return reading("prop-temp", seq, float(seq) * 0.25, value=value,
                   station=station)


def _stations(stream, skewed: bool) -> list:
    """Map raw (value, station index) pairs to tuples; when skewed, 80%
    of the traffic lands on one hot station."""
    tuples = []
    for i, (value, station) in enumerate(stream):
        name = "st-hot" if skewed and i % 5 != 0 else f"st-{station}"
        tuples.append(_reading(i, value, name))
    return tuples


#: arbitrary floats for migration parity (re-accumulation is exact).
readings = st.lists(
    st.tuples(
        st.floats(min_value=-50.0, max_value=50.0,
                  allow_nan=False, allow_infinity=False),
        st.integers(0, 9),
    ),
    min_size=4, max_size=48,
)

#: integer-valued floats for split parity (partial-sum folds are exact).
int_readings = st.lists(
    st.tuples(st.integers(-50, 50).map(float), st.integers(0, 9)),
    min_size=4, max_size=48,
)

#: forced actions: (epoch boundary ordinal, station index, recipient seed).
migrations = st.lists(
    st.tuples(st.integers(1, 6), st.integers(0, 9), st.integers(0, 63)),
    min_size=1, max_size=3, unique_by=lambda m: m[0],
)

functions = st.sampled_from(["AVG", "SUM", "MIN", "MAX", "COUNT"])


def _deploy(shard_count: int, elastic: bool, function: str = "AVG"):
    netsim, network, executor = executor_stack(
        None, sensor_metadata("prop-temp", fields={"value": "float",
                                                   "station": "str"}),
        rebalance_config=FORCED_ONLY)
    flow = pipeline("rebalance-parity", ("agg", AggregationSpec(
        interval=INTERVAL, attributes=("value",), function=function,
        group_by="station")))
    deployment = executor.deploy(flow, shards={"agg": shard_count},
                                 elastic=elastic)
    return netsim, network, deployment


def _replay(netsim, network, deployment, tuples):
    """Publish ``tuples``, run to the end; returns the observables."""
    for tuple_ in tuples:
        network.publish_data("prop-temp", tuple_)
    netsim.clock.run_until(END)
    return _observables(deployment)


def _observables(deployment):
    return [
        (t.seq, t.source, t.stamp.time, dict(t.payload))
        for t in deployment.collected("out")
    ]


def _run_static(tuples, shard_count: int):
    netsim, network, deployment = _deploy(shard_count, elastic=False)
    return deployment, _replay(netsim, network, deployment, tuples)


def _force_migration(netsim, deployment, epoch: int, station: str,
                     recipient_seed: int):
    """At mid-epoch ``epoch``, ask for a handoff at the next boundary.  The
    donor is resolved in the callback (an earlier action may have moved
    the key); self-moves and split keys are skipped, as the executor's
    guards would."""
    rebalancer = deployment.rebalancers["agg"]
    assignment = deployment.shard_groups["agg"].assignment
    key = (station,)
    recipient = recipient_seed % len(deployment.shard_groups["agg"].members)

    def request():
        donor = assignment.owner_of(key)
        if donor is not None and donor != recipient:
            rebalancer.executor.schedule(
                RebalanceDecision("migrate", key, donor, recipient))

    netsim.clock.schedule_at(epoch * INTERVAL - INTERVAL / 2, request)


def _run_elastic(tuples, shard_count: int, forced, skewed: bool):
    netsim, network, deployment = _deploy(shard_count, elastic=True)
    for epoch, station, recipient_seed in forced:
        name = "st-hot" if skewed else f"st-{station}"
        _force_migration(netsim, deployment, epoch, name, recipient_seed)
    return deployment, _replay(netsim, network, deployment, tuples)


class TestMigrationParity:
    @given(readings, st.sampled_from(SHARD_COUNTS), st.booleans(), migrations)
    @settings(max_examples=30, deadline=None)
    def test_forced_migrations_preserve_output(self, stream, shard_count,
                                               skewed, forced):
        tuples = _stations(stream, skewed)
        _, baseline = _run_static(tuples, shard_count)
        elastic_dep, rebalanced = _run_elastic(tuples, shard_count,
                                               forced, skewed)
        assert rebalanced == baseline

    @given(readings, st.sampled_from((2, 4)))
    @settings(max_examples=15, deadline=None)
    def test_migrate_away_and_back(self, stream, shard_count):
        """A key that leaves and comes home must not keep re-routing:
        the stale disowned marker is cleared on adoption."""
        tuples = _stations(stream, skewed=True)
        _, baseline = _run_static(tuples, shard_count)
        netsim, network, deployment = _deploy(shard_count, elastic=True)
        assignment = deployment.shard_groups["agg"].assignment
        home = assignment.index_for(("st-hot",))
        away = (home + 1) % shard_count
        _force_migration(netsim, deployment, 1, "st-hot", away)
        _force_migration(netsim, deployment, 3, "st-hot", home)
        assert _replay(netsim, network, deployment, tuples) == baseline
        assert assignment.owner_of(("st-hot",)) == home

    @given(readings, st.sampled_from((2, 4)), migrations)
    @settings(max_examples=15, deadline=None)
    def test_checkpoints_roundtrip_after_migration(self, stream, shard_count,
                                                   forced):
        """Post-migration checkpoints (which carry disowned sets and key
        loads) still rebuild identical replicas from scratch."""
        tuples = _stations(stream, skewed=True)
        deployment, _ = _run_elastic(tuples, shard_count, forced, skewed=True)
        group = deployment.shard_groups["agg"]
        for index, member in enumerate(group.members):
            snapshot = member.operator.checkpoint()
            spec = AggregationSpec(interval=INTERVAL, attributes=("value",),
                                   function="AVG", group_by="station")
            fresh = ShardedOperatorAdapter(
                spec.build_operator(), shard_index=index,
                shard_count=shard_count,
            )
            fresh.restore(snapshot)
            assert fresh.checkpoint() == snapshot


class TestSplitParity:
    @given(int_readings, st.sampled_from(SHARD_COUNTS), functions,
           st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_split_hot_key_preserves_output(self, stream, shard_count,
                                            function, epoch):
        """Spraying the hot key across every shard and folding partial
        accumulators at the merge reproduces the static output exactly
        (integer values: the fold's reordered sums stay bit-equal)."""
        tuples = _stations(stream, skewed=True)

        def run(split: bool):
            netsim, network, deployment = _deploy(shard_count, elastic=split,
                                                  function=function)
            if split:
                rebalancer = deployment.rebalancers["agg"]
                netsim.clock.schedule_at(
                    epoch * INTERVAL - INTERVAL / 2,
                    lambda: rebalancer.executor.schedule(RebalanceDecision(
                        "split", ("st-hot",), 0,
                        replicas=tuple(range(shard_count)))),
                )
            return _replay(netsim, network, deployment, tuples)

        assert run(split=True) == run(split=False)

    @given(int_readings, st.sampled_from((2, 4)), st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_split_then_migrations_of_other_keys(self, stream, shard_count,
                                                 epoch):
        """A split key and migrating cold keys coexist: the assignment
        resolves splits first, overrides second, hash default last."""
        tuples = _stations(stream, skewed=True)
        _, baseline = _run_static(tuples, shard_count)
        netsim, network, deployment = _deploy(shard_count, elastic=True)
        rebalancer = deployment.rebalancers["agg"]
        netsim.clock.schedule_at(
            epoch * INTERVAL - INTERVAL / 2,
            lambda: rebalancer.executor.schedule(RebalanceDecision(
                "split", ("st-hot",), 0, replicas=tuple(range(shard_count)))),
        )
        for station in range(3):
            _force_migration(netsim, deployment, epoch + 1,
                             f"st-{station}", station + 1)
        assert _replay(netsim, network, deployment, tuples) == baseline
