"""Property-based tests: born together, sent together.

DESIGN.md §11's framing rule: whatever one process call emits — a timer
flush, or the emissions of one ``receive`` — travels as **one message per
route** when it holds more than one tuple, and as a bare tuple when it
holds one; a shard-group route gets one sub-batch per owning member, in
arrival order.  The rule may change how many messages cross the network,
never what flows: for random grouped-aggregation and join flows fed
*lone* tuples, every observable equals the same flow driven with each
output forwarded one by one (``_forward(emitted, False)``, the framing
batch 1 had before the rule).

Runs on both backends with the parity suite's comparison helpers; the
topology is one live node (delivery is local and zero-latency, the
discipline of the batch- and shard-parity suites) plus a dead one whose
subscriber makes the broker's retry and dead-letter path part of every
run.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dataflow.graph import Dataflow
from repro.dataflow.ops import AggregationSpec, JoinSpec
from repro.network.topology import Topology
from repro.pubsub.subscription import SubscriptionFilter
from repro.runtime.backends import backend_from_name
from repro.runtime.sharding import ShardGroup
from repro.scenario import build_stack
from repro.streams.shard import ShardMergeOperator
from repro.streams.tuple import TupleBatch

from tests.builders import pipeline
from tests.parity._compare import (
    MAX_WALL_SECONDS,
    audit_multiset,
    service_totals,
    sink_multiset,
)
from tests.property.test_prop_shard_parity import (
    _metadata,
    _reading,
    functions,
    readings,
)

BACKENDS = ("sim", "async")
#: Flush cadence of every blocking operator; where a run stops (past the
#: third flush, every reading long since in); and the instant operator
#: state is snapshotted — inside the second window, between two
#: readings, while the stream (up to 12 s of it) is still arriving.
INTERVAL = 7.0
HORIZON = 24.5
SNAPSHOT_AT = 10.6


def _aggregation_flow(function: str) -> Dataflow:
    """temperature -> grouped aggregate -> two sinks (two routes)."""
    flow = Dataflow("burst-agg")
    source = flow.add_source(
        SubscriptionFilter(sensor_type="temperature"), node_id="src")
    agg = flow.add_operator(
        AggregationSpec(interval=INTERVAL, attributes=("value",),
                        function=function, group_by="station"),
        node_id="agg",
    )
    flow.connect(source, agg)
    for name in ("out", "copy"):
        flow.connect(agg, flow.add_sink("collector", node_id=name))
    return flow


def _chain_flow(function: str) -> Dataflow:
    """temperature -> grouped aggregate -> grouped COUNT -> sink; sharding
    the COUNT makes the first aggregate's route a shard group."""
    return pipeline(
        "burst-chain",
        ("agg", AggregationSpec(interval=INTERVAL, attributes=("value",),
                                function=function, group_by="station")),
        ("recount", AggregationSpec(
            interval=INTERVAL, attributes=(f"{function.lower()}_value",),
            function="COUNT", group_by="station")))


def _join_flow() -> Dataflow:
    flow = Dataflow("burst-join")
    left = flow.add_source(
        SubscriptionFilter(sensor_type="temperature"), node_id="left")
    right = flow.add_source(
        SubscriptionFilter(sensor_type="humidity"), node_id="right")
    join = flow.add_operator(
        JoinSpec(interval=INTERVAL,
                 predicate="left.station == right.station"),
        node_id="join",
    )
    sink = flow.add_sink("collector", node_id="out")
    flow.connect(left, join, port=0)
    flow.connect(right, join, port=1)
    flow.connect(join, sink)
    return flow


def _instrument(deployment, netsim, one_by_one: bool) -> list:
    """Record every ``_forward`` call: ``(process, emitted, payloads sent,
    messages_sent delta, tuples_sent delta)``.  With ``one_by_one`` the
    call is made with ``batched=False`` — the reference framing."""
    records, payloads = [], []
    send = netsim.send
    stats = netsim.stats

    def spying_send(*args, **kwargs):
        payloads.append(args[2])
        return send(*args, **kwargs)

    netsim.send = spying_send
    for process in deployment.processes.values():
        def forward(emitted, batched, process=process,
                    original=process._forward):
            mark = len(payloads)
            messages, tuples = stats.messages_sent, stats.tuples_sent
            original(emitted, False if one_by_one else batched)
            records.append((
                process, list(emitted), payloads[mark:],
                stats.messages_sent - messages, stats.tuples_sent - tuples,
            ))

        process._forward = forward
    return records


def _run(backend_name: str, flow: Dataflow, shards, streams: dict,
         one_by_one: bool) -> dict:
    """Deploy ``flow``, replay ``streams`` as lone publishes at their
    stamp instants; return observables + framing log."""
    topology = Topology()
    topology.add_node("hub")
    topology.add_node("lost")
    topology.add_link("hub", "lost")
    backend = backend_from_name(backend_name, topology=topology,
                                max_wall=MAX_WALL_SECONDS)
    with build_stack(attach_fleet=False, backend=backend) as stack:
        network = stack.broker_network
        for sensor_id, (sensor_type, _) in streams.items():
            network.publish(_metadata(sensor_id, sensor_type, "hub"))
        # A subscriber on a dead node: every reading is retried, then
        # dead-lettered (the broker's timers carry their arguments too).
        lost = network.subscribe(
            "lost", SubscriptionFilter(sensor_type="temperature"),
            lambda tuple_: None)
        topology.node("lost").fail()
        deployment = stack.executor.deploy(flow, shards=shards)
        records = _instrument(deployment, stack.netsim, one_by_one)
        for sensor_id, (_, stream) in streams.items():
            for seq, (value, station) in enumerate(stream):
                tuple_ = _reading(sensor_id, seq, value, f"st-{station}")
                stack.clock.schedule_at(
                    tuple_.stamp.time, network.publish_data, sensor_id, tuple_)
        checkpoints = {}
        stack.clock.schedule_at(SNAPSHOT_AT, lambda: checkpoints.update(
            (name, process.operator.checkpoint())
            for name, process in deployment.processes.items()
            if process.operator.checkpointable
        ))
        stack.run_until(HORIZON)
        return {
            "records": records,
            "sinks": {name: list(sink.received)
                      for name, sink in deployment.collectors.items()},
            "services": service_totals(deployment),
            "checkpoints": checkpoints,
            "last_checkpoints": {
                name: process.last_checkpoint
                for name, process in deployment.processes.items()
            },
            "audit": audit_multiset(deployment),
            "lost": [(letter.tuple.source, letter.tuple.seq, letter.reason,
                      letter.failed_at) for letter in lost.dead_letters],
            "dropped": stack.netsim.stats.messages_dropped,
        }


def _assert_framing(records) -> int:
    """Every recorded call obeyed the rule; returns how many bursts went."""
    bursts = 0
    for process, emitted, payloads, messages, tuples in records:
        count = len(emitted)
        expected = []
        for route in process.routes:
            target = route.target
            if type(target) is not ShardGroup:
                expected.append(tuple(emitted))
                continue
            # Buckets in shard order, arrival order inside each.
            owned: dict = {}
            for tuple_ in emitted:
                member = target.member_for(tuple_, route.port)
                owned.setdefault(
                    target.members.index(member), []).append(tuple_)
            expected.extend(tuple(owned[i]) for i in sorted(owned))
        assert messages == len(payloads) == len(expected)
        assert tuples == count * len(process.routes)
        for payload, members in zip(payloads, expected):
            if count == 1:
                assert payload is emitted[0]  # bare, never a batch of one
            else:
                assert type(payload) is TupleBatch
                assert payload.tuples == members
        bursts += count > 1
    return bursts


def _assert_same_flow(burst: dict, lone: dict, ordered: bool) -> None:
    """Everything but the message counts equals the one-by-one run."""
    assert burst["sinks"].keys() == lone["sinks"].keys()
    for name, received in burst["sinks"].items():
        reference = lone["sinks"][name]
        if ordered:
            assert received == reference
        assert sink_multiset(received) == sink_multiset(reference)
        for run in (received, reference):
            seqs: dict = {}
            for tuple_ in run:
                seqs.setdefault(tuple_.source, []).append(tuple_.seq)
            # A join numbers its pairs per flush: a later flush of a
            # ``name(l⋈r)`` source restarts at 0 (29+ readings a side fill
            # a second 7 s window).  Every other source counts up.
            for source, s in seqs.items():
                pairs = zip(s, s[1:])
                if "⋈" in source:
                    assert all(b >= a or b == 0 for a, b in pairs), source
                else:
                    assert all(b >= a for a, b in pairs), source
    for key in ("services", "checkpoints", "last_checkpoints", "audit",
                "lost", "dropped"):
        assert burst[key] == lone[key], key
    assert burst["lost"]  # the retry path really ran
    assert burst["checkpoints"]


def _check(backend_name, flow_factory, shards, streams) -> list:
    burst = _run(backend_name, flow_factory(), shards, streams, False)
    lone = _run(backend_name, flow_factory(), shards, streams, True)
    bursts = _assert_framing(burst["records"])
    burst_messages = sum(record[3] for record in burst["records"])
    lone_messages = sum(record[3] for record in lone["records"])
    assert burst_messages <= lone_messages
    assert (burst_messages < lone_messages) == (bursts > 0)
    _assert_same_flow(burst, lone, ordered=backend_name == "sim")
    return burst["records"]


class TestAggregationBursts:
    @given(readings, functions, st.sampled_from((1, 2, 4)),
           st.sampled_from(BACKENDS))
    @settings(max_examples=30, deadline=None)
    def test_flush_is_one_message_per_route(self, stream, function,
                                            shard_count, backend_name):
        shards = {"agg": shard_count} if shard_count > 1 else None
        records = _check(backend_name, lambda: _aggregation_flow(function),
                         shards, {"prop-temp": ("temperature", stream)})
        if shard_count > 1:
            # A shard flushes one envelope — a lone partial — and the
            # merge's release on the last of them is one message a route.
            releases = [r for r in records
                        if type(r[0].operator) is ShardMergeOperator]
            assert releases
            assert all(r[3] == len(r[0].routes) == 2 for r in releases)

    @given(readings, functions, st.sampled_from((2, 4)),
           st.sampled_from(BACKENDS))
    @settings(max_examples=30, deadline=None)
    def test_shard_group_gets_one_sub_batch_per_owner(self, stream, function,
                                                      shard_count,
                                                      backend_name):
        records = _check(
            backend_name, lambda: _chain_flow(function),
            {"recount": shard_count},
            {"prop-temp": ("temperature", stream)},
        )
        into_group = [r for r in records
                      if type(r[0].routes[0].target) is ShardGroup]
        assert into_group
        for _, emitted, payloads, _, _ in into_group:
            assert len(payloads) <= min(len(emitted), shard_count)


class TestJoinBursts:
    @given(readings, readings, st.sampled_from((1, 2, 4)),
           st.sampled_from(BACKENDS))
    # Two windows of pairs: the second flush's seqs restart at 0.
    @example([(1.0, 0)] * 32, [(1.0, 0)] * 32, 1, "sim")
    @settings(max_examples=30, deadline=None)
    def test_join_flush_is_one_message(self, left, right, shard_count,
                                       backend_name):
        shards = {"join": shard_count} if shard_count > 1 else None
        _check(
            backend_name, _join_flow, shards,
            {"prop-temp": ("temperature", left),
             "prop-hum": ("humidity", right)},
        )
