"""Property-based tests: the batched data plane is semantically invisible.

DESIGN.md's §11 promise: micro-batching changes *when* and *how* tuples
travel, never *what* arrives.  For a random operator pipeline and a random
reading stream, publishing through ``publish_batch`` in runs of N must
leave every observable — sink contents, per-source tuple order, operator
checkpoint payloads, dead-letter audit records — identical to publishing
the same readings tuple-at-a-time.

The two runs are driven at identical virtual times on a single-node
topology (all delivery is local, zero latency), because batching a *live*
sensor legitimately shifts publish timestamps by up to ``max_delay`` —
that latency trade-off is exercised by the integration tests, while this
file pins down the pure data-plane equivalence.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.netsim import NetworkSimulator
from repro.network.topology import Topology
from repro.pubsub.broker import BrokerNetwork
from repro.pubsub.subscription import SubscriptionFilter
from tests.property._pipeline import (
    SOUND_KINDS,
    metadata,
    reading,
    run_flow,
)

BATCH_SIZES = (2, 7, 32)

operator_chains = st.lists(
    st.tuples(st.sampled_from(SOUND_KINDS), st.integers(0, 30)),
    min_size=0, max_size=4,
)

temperature_streams = st.lists(
    st.floats(min_value=-20.0, max_value=45.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=64,
)


class TestBatchParity:
    @given(operator_chains, temperature_streams,
           st.sampled_from(BATCH_SIZES))
    @settings(max_examples=60, deadline=None)
    def test_batched_pipeline_is_equivalent(self, chain, temperatures,
                                            batch_size):
        # The default deployment: no observability attached.
        baseline = run_flow(chain, temperatures, 1, sampling=None)
        batched = run_flow(chain, temperatures, batch_size, sampling=None)

        assert batched["collected"] == baseline["collected"]
        # Per-source order: the collected list already proves content
        # equality; the seq sequence proves no reordering inside batches.
        assert ([t.seq for t in batched["collected"]]
                == [t.seq for t in baseline["collected"]])
        assert batched["checkpoints"] == baseline["checkpoints"]
        # Payload accounting is tuple-denominated on both paths.
        assert (batched["tuples_delivered"]
                == baseline["tuples_delivered"])


class TestDeadLetterParity:
    @given(temperature_streams, st.sampled_from(BATCH_SIZES))
    @settings(max_examples=25, deadline=None)
    def test_batch_exhaustion_dead_letters_each_tuple(self, temperatures,
                                                      batch_size):
        """Retry exhaustion audits per tuple, batched or not."""
        def run(batch_size: int):
            netsim = NetworkSimulator(topology=Topology.line(2))
            network = BrokerNetwork(netsim=netsim)
            network.publish(metadata("node-0"))
            subscription = network.subscribe(
                "node-1", SubscriptionFilter(sensor_type="temperature"),
                lambda tuple_: None,
            )
            netsim.topology.node("node-1").fail()
            readings = [reading(i, t)
                        for i, t in enumerate(temperatures)]
            if batch_size == 1:
                for one in readings:
                    network.publish_data("prop-sensor", one)
            else:
                for start in range(0, len(readings), batch_size):
                    network.publish_batch(
                        "prop-sensor", readings[start:start + batch_size]
                    )
            netsim.clock.run()
            return [(letter.tuple.seq, letter.reason)
                    for letter in subscription.dead_letters]

        assert run(batch_size) == run(1)
