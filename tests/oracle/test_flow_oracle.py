"""The flow oracle: a deployed chain reports what its operators would.

The reference is fresh member operators, each reading pushed through
``on_tuple`` in chain order (the paper's "directly on each tuple").  The
system under test is the same chain deployed the one way every deployment
runs (fused, column kernels from ``MIN_COLUMNAR_ROWS`` rows up), fed
through the broker on one node at one virtual instant, so arrival order
is publish order.  For a random chain (0–5 members, some quarantining
rows), stream, publish size, sampling rate and optional hub failure, the
deployment must report the reference's sink contents, each member's stats,
checkpoint and ``process_tuples_total``, and one dead letter per reading
published after the failure (DESIGN.md §10).  The designer's preview is
held to the same plan: each sink shows what an untapped deployment
collects from the same samples.
"""

import inspect

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.ops import (
    AggregationSpec, CullTimeSpec, FilterSpec, JoinSpec, TransformSpec,
    TriggerOnSpec, VirtualPropertySpec,
)
from repro.designer.preview import replay_samples
from repro.obs import Observability
from repro.pubsub.subscription import SubscriptionFilter
from repro.sticker.feed import StickerFeed
from repro.streams import columnar
from repro.streams.fused import FUSED_NAME_SEPARATOR
from repro.streams.tuple import SensorTuple
from repro.stt.event import SttStamp
from repro.stt.spatial import Point
from repro.warehouse.loader import EventWarehouse
from tests.builders import dsn, executor_stack, pipeline, sensor_metadata

#: Kinds whose specs only reference attributes every stage preserves.
SOUND_KINDS = ("filter", "virtual", "transform", "cull")
#: Kinds that quarantine rows at runtime (division by zero exactly at
#: ``POISON_TEMPERATURE``), one per column kernel family.
POISON_KINDS = ("errtransform", "errvirtual")
POISON_TEMPERATURE = 20.0

BATCH_SIZES = (1, 2, 3, 7, 16, 32)
SAMPLING_RATES = (None, 0.0, 0.5)
DOWN = "target node 'hub' is down"


def spec(kind: str, param: int, index: int):
    """Map a drawn ``(kind, param)`` at chain position ``index`` to a spec."""
    if kind == "filter":
        return FilterSpec(f"temperature > {param - 16}")
    if kind == "virtual":
        return VirtualPropertySpec(f"v{index}", "temperature * 2")
    if kind == "transform":
        return TransformSpec(assignments={"humidity": "humidity + 1"})
    if kind == "errtransform":
        return TransformSpec(
            assignments={"ratio": "temperature / (temperature - 20)"})
    if kind == "errvirtual":
        return VirtualPropertySpec(f"e{index}",
                                   "humidity / (temperature - 20)")
    return CullTimeSpec(rate=param % 4 + 1, start=0.0, end=1e9)


def reading(seq: int, temperature: float) -> SensorTuple:
    return SensorTuple(
        payload={"temperature": temperature, "humidity": 50.0 + seq % 3},
        stamp=SttStamp(time=float(seq), location=Point(34.69, 135.50),
                       themes=("weather/temperature",)),
        source="prop-sensor",
        seq=seq,
    )


def sink_view(tuples) -> list:
    # Payload *item order* is part of the contract: rows materialized from
    # columns must be insertion-order identical to row-built ones.
    return [(t.seq, t.source, list(t.payload.items())) for t in tuples]


def reference(chain, temperatures, sampling):
    """The chain applied on each tuple: returns what ``deployed`` does."""
    members = [spec(kind, param, index).build_operator()
               for index, (kind, param) in enumerate(chain)]
    out = []
    for seq, temperature in enumerate(temperatures):
        tuples = [reading(seq, temperature)]
        for member in members:
            tuples = [emitted for tuple_ in tuples
                      for emitted in member.on_tuple(tuple_)]
        out.extend(tuples)
    names = [f"op{index}" for index in range(len(members))]
    return {
        "sink": sink_view(out),
        "stats": {name: member.stats.snapshot()
                  for name, member in zip(names, members)},
        "checkpoints": {name: member.checkpoint()
                        for name, member in zip(names, members)},
        "counters": {
            name: None if sampling is None else member.stats.tuples_in
            for name, member in zip(names, members)
        },
    }


def _stack(obs=None):
    """One-node stack with the oracle's sensor advertised on the hub."""
    netsim, network, executor = executor_stack(
        None, sensor_metadata(
            "prop-sensor", fields={"temperature": "float", "humidity": "float"}),
        warehouse=EventWarehouse(), sticker=StickerFeed(), obs=obs)
    return netsim.topology, netsim, network, executor


def deployed(chain, temperatures, batch_size, sampling, fail_at):
    """Deploy the chain on one node and drive it at one virtual instant,
    publishing in runs of ``batch_size``.  ``sampling`` ``None`` attaches
    no observability; ``fail_at`` fails the hub before the first
    publication starting at or after that many readings."""
    obs = None if sampling is None else Observability(sampling=sampling)
    topology, netsim, network, executor = _stack(obs)
    dead_letters: list = []
    network.on_dead_letter = lambda subscription, tuple_, reason: (
        dead_letters.append((subscription.node_id, tuple_.seq, reason)))

    names = [f"op{index}" for index in range(len(chain))]
    flow = pipeline("oracle", *(
        (name, spec(kind, param, index))
        for index, (name, (kind, param)) in enumerate(zip(names, chain))))
    deployment = executor.deploy(flow)
    # The default plan hosts a chain of two or more in one process.
    assert {key: unit.services for key, unit in deployment.plan.units.items()
            if unit.role == "chain"} == (
        {FUSED_NAME_SEPARATOR.join(names): tuple(names)}
        if len(names) >= 2 else {}
    )

    readings = [reading(seq, t) for seq, t in enumerate(temperatures)]
    for start in range(0, len(readings), batch_size):
        if fail_at is not None and start >= fail_at:
            # Deliver what was published so far: the failure is mid-stream.
            netsim.clock.run_until(netsim.clock.now)
            topology.node("hub").fail()
            fail_at = None
        if batch_size == 1:
            network.publish_data("prop-sensor", readings[start])
        else:
            network.publish_batch("prop-sensor",
                                  readings[start:start + batch_size])
    netsim.clock.run_until(200.0)

    members, counters = {}, {}
    for name in names:
        key = deployment.plan.exits[name]
        if key == name:
            members[name] = deployment.processes[name].operator
        else:
            chain_members = deployment.processes[key].operator.members
            members[name] = next(m for m in chain_members if m.name == name)
        counter = None if obs is None else obs.metrics.get(
            "process_tuples_total", process=f"oracle:{name}")
        counters[name] = None if counter is None else counter.value
    return {
        "sink": sink_view(deployment.collected("out")),
        "stats": {name: members[name].stats.snapshot() for name in names},
        "checkpoints": {name: members[name].checkpoint() for name in names},
        "counters": counters,
        "dead_letters": dead_letters,
    }


def chains_of(kinds, min_size, max_size):
    """Chains of ``(kind, param)`` drawn from ``kinds``."""
    return st.lists(st.tuples(st.sampled_from(kinds), st.integers(0, 30)),
                    min_size=min_size, max_size=max_size)


chains = chains_of(SOUND_KINDS + POISON_KINDS, 0, 5)
clean_temperatures = st.floats(min_value=-20.0, max_value=45.0,
                               allow_nan=False, allow_infinity=False)
temperature_streams = st.lists(
    st.one_of(clean_temperatures, st.just(POISON_TEMPERATURE)),
    min_size=1, max_size=64,
)


def assert_reports_the_reference(chain, temperatures, batch_size,
                                 sampling=None, fail=False):
    """Deploy ``chain`` and hold everything it reports to ``reference``;
    ``fail`` fails the hub before the publication reaching half the
    readings."""
    fail_at = max(1, len(temperatures) // 2) if fail else None
    actual = deployed(chain, temperatures, batch_size, sampling, fail_at)

    # Readings from the first publication at or after ``fail_at`` on are
    # published into a dead hub; the ones before went through the chain.
    cut = len(temperatures)
    if fail_at is not None:
        cut = min(cut, -(-fail_at // batch_size) * batch_size)
    expected = reference(chain, temperatures[:cut], sampling)
    expected["dead_letters"] = [
        ("hub", seq, DOWN) for seq in range(cut, len(temperatures))]
    assert actual == expected


@given(chains, temperature_streams, st.sampled_from(BATCH_SIZES),
       st.sampled_from(SAMPLING_RATES), st.booleans())
@settings(max_examples=200, deadline=None)
def test_a_deployed_chain_reports_what_its_operators_would(
    chain, temperatures, batch_size, sampling, fail
):
    assert_reports_the_reference(chain, temperatures, batch_size, sampling,
                                 fail)


def test_no_row_reaching_a_sink_has_an_instance_dict():
    """Rows are one slotted shape wherever they were built: published,
    out of a fused chain's row and column kernels, out of a sharded
    grouped aggregate's merge, and out of a join — none carries an
    instance dict, on itself or on its stamp."""
    _, netsim, network, executor = _stack()
    flow = dsn(
        "src > raw", "src > op0", "op0 > op1", "op1 > rows", "op1 > agg",
        "agg > groups", "op1 > join:0", "src > join:1", "join > pairs",
        name="row-shape", src=SubscriptionFilter(sensor_type="temperature"),
        op0=spec("virtual", 0, 0), op1=spec("transform", 0, 1),
        agg=AggregationSpec(interval=7.0, attributes=("temperature",),
                            function="AVG", group_by="humidity"),
        join=JoinSpec(interval=7.0,
                      predicate="left.humidity == right.humidity"),
        **dict.fromkeys(("raw", "rows", "groups", "pairs"), "collector"))
    deployment = executor.deploy(flow, shards={"agg": 2})
    assert "op0" + FUSED_NAME_SEPARATOR + "op1" in deployment.plan.units
    assert "agg" in deployment.plan.groups

    readings = [reading(seq, 10.0 + seq % 7) for seq in range(40)]
    network.publish_data("prop-sensor", readings[0])  # the row kernel
    network.publish_batch("prop-sensor", readings[1:33])  # column kernels
    network.publish_batch("prop-sensor", readings[33:])
    netsim.clock.run_until(60.0)

    for name in ("raw", "rows", "groups", "pairs"):
        rows = deployment.collected(name)
        assert rows, name
        for row in rows:
            assert not hasattr(row, "__dict__"), name
            assert not hasattr(row.stamp, "__dict__"), name


def test_the_columnar_materialiser_installs_no_instance_dict():
    assert "__dict__" not in inspect.getsource(columnar)


#: Virtual seconds an oracle deployment runs past the last sample: long
#: past every flush a preview of the canvases here waits for.
PAST_LAST = 3 * 3600.0


def deployed_on_samples(executor, flow, samples):
    """``flow`` deployed as drawn on ``executor``'s fresh simulator at the
    first sample's stamp, each sample published on its own at its stamp
    time (a tuple listed under several sources once)."""
    clock = executor.netsim.clock
    network = executor.broker_network
    readings = sorted(
        {id(t): t for batch in samples.values() for t in batch}.values(),
        key=lambda t: t.stamp.time,
    )
    clock.run_until(readings[0].stamp.time)
    deployment = executor.deploy(flow)
    for tuple_ in readings:
        clock.schedule_at(tuple_.stamp.time, network.publish_data,
                          tuple_.source, tuple_)
    clock.run_until(readings[-1].stamp.time + PAST_LAST)
    return deployment


def previewed_flow(chain, interval, threshold):
    """``chain`` off the oracle's source into ``out``, through a grouped
    AVG flushing every ``interval`` s when one is given; a ``threshold``
    adds a dormant source on the same sensor, woken by a trigger on the
    5 s mean temperature crossing it, into ``gated-out``."""
    stages = [spec(kind, param, index)
              for index, (kind, param) in enumerate(chain)]
    if interval is not None:
        stages.append(AggregationSpec(
            interval=interval, attributes=("temperature",), function="AVG",
            group_by="humidity"))
    flow = pipeline("preview-oracle", *(
        (f"op{index}", stage) for index, stage in enumerate(stages)))
    if threshold is not None:
        flow.add_source(SubscriptionFilter.for_sensor("prop-sensor"),
                        node_id="gated", initially_active=False)
        flow.add_operator(TriggerOnSpec(
            interval=5.0, condition=f"avg_temperature > {threshold}",
            targets=("prop-sensor",)), node_id="trig")
        flow.connect("src", "trig")
        flow.connect_control("trig", "gated")
        flow.add_sink("collector", node_id="gated-out")
        flow.connect("gated", "gated-out")
    return flow


def assert_preview_is_the_deployment(chain, temperatures, interval, threshold):
    """Preview the canvas and deploy it untapped on a fresh stack; every
    sink shows the same rows.  Returns the preview."""
    readings = [reading(seq, t) for seq, t in enumerate(temperatures)]
    samples = {"src": readings}
    if threshold is not None:
        samples["gated"] = readings
    topology, _, network, _ = _stack()
    preview = replay_samples(previewed_flow(chain, interval, threshold),
                             samples, network.registry, topology)
    *_, executor = _stack()
    deployment = deployed_on_samples(
        executor, previewed_flow(chain, interval, threshold), samples)
    # The deployment is the default plan: a run of two or more
    # non-blocking members is one process.
    assert any(unit.role == "chain"
               for unit in deployment.plan.units.values()) == (
        len(chain) >= 2
    )
    for sink in deployment.collectors:
        assert sink_view(preview.at(sink)) == sink_view(
            deployment.collected(sink)), sink
    return preview


@given(chains, temperature_streams,
       st.sampled_from((None, 4.0, 16.0)),
       st.one_of(st.none(), st.integers(-20, 45)))
@settings(max_examples=60, deadline=None)
def test_the_preview_shows_what_the_deployment_collects(
    chain, temperatures, interval, threshold
):
    assert_preview_is_the_deployment(chain, temperatures, interval, threshold)


def test_a_gated_source_previews_dormant_until_its_trigger_fires():
    """Cool readings, then hot ones: the gated source wakes at the first
    trigger tick after the mean crosses 25, and the preview shows only
    what reached it from then on."""
    temperatures = [10.0] * 12 + [30.0] * 12
    preview = assert_preview_is_the_deployment([("filter", 0), ("virtual", 0)],
                                               temperatures, 4.0, 25)
    woke = preview.commands[0]
    assert woke.activate and woke.issued_at == 20.0
    assert [t.seq for t in preview.at("gated-out")] == list(range(21, 24))
