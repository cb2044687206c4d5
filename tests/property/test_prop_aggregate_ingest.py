"""Property: aggregation ingest is one kernel, however fed (DESIGN.md §10).

A random stream cut into ``on_batch`` chunks of any size reports what the
operator fed tuple at a time reports — payloads (floats by ``==``),
stamps, seqs, checkpoint, accumulators — also when ``max_cache`` is
smaller than a chunk (evictions inside a batch) and for non-numeric
values (the rescan path).  ``restore`` and ``adopt_partition`` replay
through the same kernel.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams.aggregate import AggregationOperator
from repro.streams.tuple import SensorTuple, TupleBatch
from repro.stt.event import SttStamp
from repro.stt.spatial import Box, Point

CHUNKS = (1, 5, 32)
FUNCTIONS = ("COUNT", "AVG", "SUM", "MIN", "MAX")

#: A few location *objects*, shared between tuples like a sensor's
#: advertised position is (the kernel resolves a point once per run of
#: one object), plus a Box, whose representative point is computed.
LOCATIONS = (
    Point(34.69, 135.50),
    Point(34.70, 135.49),
    Point(34.69, 135.50),  # equal to the first, another object
    Box(south=34.5, west=135.2, north=34.9, east=135.8),
)

values = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
    st.integers(min_value=-50, max_value=50),
    st.booleans(),
    st.none(),
    st.sampled_from(["2.5", "-7"]),  # non-numeric type: the rescan path
)

readings = st.lists(
    st.tuples(
        values,
        st.integers(min_value=0, max_value=3),             # station
        st.integers(min_value=0, max_value=len(LOCATIONS) - 1),
        st.booleans(),                                     # flush after it
    ),
    min_size=1, max_size=90,
)

configs = st.fixed_dictionaries({
    "function": st.sampled_from(FUNCTIONS),
    "group_by": st.sampled_from([None, "station"]),
    "window": st.sampled_from([None, 12.0]),               # tumbling/sliding
    "max_cache": st.sampled_from([3, 20, 100_000]),
})


def _operator(config) -> AggregationOperator:
    return AggregationOperator(
        interval=4.0, attributes=["temperature"], name="agg", **config)


def _stream(drawn) -> "list[tuple[SensorTuple, bool]]":
    return [
        (
            SensorTuple(
                payload={"temperature": value, "station": f"st-{station}"},
                stamp=SttStamp(time=float(i), location=LOCATIONS[where]),
                source=f"sensor-{station}",
                seq=i,
            ),
            flush,
        )
        for i, (value, station, where, flush) in enumerate(drawn)
    ]


def _segments(stream):
    """Runs of tuples between flushes: ``[(tuples, flush instant)]``."""
    out, run = [], []
    for tuple_, flush in stream:
        run.append(tuple_)
        if flush:
            out.append((run, tuple_.stamp.time + 0.5))
            run = []
    out.append((run, stream[-1][0].stamp.time + 0.75))
    return out


def _accumulators(op: AggregationOperator) -> dict:
    """A detached copy of every group's running state."""
    return {
        key: (list(acc.members),
              {attr: list(stats) for attr, stats in acc.stats.items()},
              set(acc.dirty), set(acc.rescan), acc.bbox, acc.bbox_dirty)
        for key, acc in op._groups.items()
    }


def _observable(op: AggregationOperator, emitted) -> tuple:
    return ([(t.payload, t.stamp, t.source, t.seq) for t in emitted],
            op.checkpoint(), _accumulators(op))


@settings(max_examples=120, deadline=None)
@given(readings, configs, st.booleans())
def test_on_batch_in_any_chunks_equals_on_tuple(drawn, config, as_envelope):
    segments = _segments(_stream(drawn))
    by_tuple = _operator(config)
    expected = []
    for run, now in segments:
        for tuple_ in run:
            assert by_tuple.on_tuple(tuple_) == []
        expected.append(_observable(by_tuple, by_tuple.on_timer(now)))
    for chunk in CHUNKS:
        by_batch = _operator(config)
        got = []
        for run, now in segments:
            for first in range(0, len(run), chunk):
                members = run[first:first + chunk]
                batch = TupleBatch.of(members) if as_envelope else members
                assert by_batch.on_batch(batch) == []
            got.append(_observable(by_batch, by_batch.on_timer(now)))
        assert got == expected, chunk
        assert by_batch.stats.snapshot() == by_tuple.stats.snapshot()
        assert by_batch.cache.evicted == by_tuple.cache.evicted


@settings(max_examples=60, deadline=None)
@given(readings, configs, st.sampled_from(CHUNKS))
def test_restore_rebuilds_what_a_fresh_replay_builds(drawn, config, chunk):
    tuples = [tuple_ for tuple_, _ in _stream(drawn)]
    live = _operator(config)
    for first in range(0, len(tuples), chunk):
        live.on_batch(tuples[first:first + chunk])
    state = live.checkpoint()
    restored = _operator(config)
    restored.restore(state)
    replayed = _operator(config)
    for tuple_ in state["cache"]:
        replayed.on_tuple(tuple_)
    assert _accumulators(restored) == _accumulators(replayed)
    assert restored.cache.snapshot() == replayed.cache.snapshot()
    assert restored.on_timer(1000.0) == replayed.on_timer(1000.0)


@settings(max_examples=60, deadline=None)
@given(readings, st.sampled_from(FUNCTIONS), st.sampled_from([None, 12.0]),
       st.sampled_from(CHUNKS))
def test_adopted_partition_equals_a_fresh_replay(drawn, function, window, chunk):
    config = {"function": function, "group_by": "station", "window": window,
              "max_cache": 100_000}
    tuples = [tuple_ for tuple_, _ in _stream(drawn)]
    moving = tuples[0]["station"]
    donor, recipient = _operator(config), _operator(config)
    # The router's invariant: one owner per key, so the recipient holds
    # none of the moving key's tuples before it adopts them.
    residents = [t for t in tuples if t["station"] != moving]
    for first in range(0, len(tuples), chunk):
        donor.on_batch(tuples[first:first + chunk])
    for first in range(0, len(residents), chunk):
        recipient.on_batch(residents[first:first + chunk])
    before = _accumulators(recipient)
    moved = donor.extract_partition(moving)
    assert moved == [t for t in tuples if t["station"] == moving]
    assert moving not in donor._groups
    recipient.adopt_partition(moved)
    replayed = _operator(config)
    for tuple_ in moved:
        replayed.on_tuple(tuple_)
    after = _accumulators(recipient)
    assert after.pop(moving) == _accumulators(replayed)[moving]
    assert after == before
    # Same tuples, same arrival order per group: the recipient now emits
    # what an operator that saw the whole stream does.
    whole = _operator(config)
    for tuple_ in tuples:
        whole.on_tuple(tuple_)
    assert recipient.on_timer(1000.0) == whole.on_timer(1000.0)
