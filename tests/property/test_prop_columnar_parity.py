"""Property-based tests: columnar execution is semantically invisible.

DESIGN.md's §16 promise: running a fused chain as whole-column kernels
over a struct-of-arrays batch changes *how* member code loops, never
*what* the flow computes or reports.  The reference is the paper's own
semantics — every operator "applied on each tuple" — so the baseline is
the same fused deployment fed the same readings one ``publish_data`` at
a time at the same virtual instant: no batch ever forms and every member
runs its row kernel.  For a random columnar-capable chain (length 2–5,
including transform and virtual-property members that quarantine rows at
runtime), a random reading stream (with temperatures that make the
division assignment blow up), batch sizes {3, 16, 32} — below
``MIN_COLUMNAR_ROWS`` a batch takes the row loop, so that is on the
batched side too — and either trace-sampling rate, the batched run must
leave every observable — sink contents *with payload item order*,
per-source tuple order, dead-letter audit records, per-member
``process_tuples_total`` counters and per-member ``OperatorStats`` —
identical to the lone-tuple run.

A second property pins the representation itself: transposing any
uniform-schema batch and materializing it back yields the *same tuple
objects*, including rows whose values would make every expression in
the operator family fail (quarantine candidates ride along untouched).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams.columnar import ColumnarBatch
from repro.streams.tuple import SensorTuple
from repro.stt.event import SttStamp
from repro.stt.spatial import Point
from tests.property._pipeline import (
    POISON_KINDS,
    POISON_TEMPERATURE,
    SOUND_KINDS,
    run_flow,
)

BATCH_SIZES = (3, 16, 32)
SAMPLING_RATES = (0.0, 0.5)

# Every drawn chain has a column kernel end to end, so the two runs
# differ by exactly the kernel under test; the error-injecting kinds
# make sure selection vectors shrink mid-pipeline.
columnar_chains = st.lists(
    st.tuples(st.sampled_from(SOUND_KINDS + POISON_KINDS),
              st.integers(0, 30)),
    min_size=2, max_size=5,
)

temperature_streams = st.lists(
    st.one_of(
        st.floats(min_value=-20.0, max_value=45.0,
                  allow_nan=False, allow_infinity=False),
        st.just(POISON_TEMPERATURE),
    ),
    min_size=1, max_size=64,
)


def _collected(run) -> list:
    # Payload *item order* is part of the contract: materialized dicts
    # must be insertion-order identical to row-built ones.
    return [(t.seq, t.source, list(t.payload.items()))
            for t in run["collected"]]


class TestColumnarParity:
    @given(columnar_chains, temperature_streams,
           st.sampled_from(BATCH_SIZES), st.sampled_from(SAMPLING_RATES))
    @settings(max_examples=30, deadline=None)
    def test_columnar_pipeline_is_equivalent(self, chain, temperatures,
                                             batch_size, sampling):
        baseline = run_flow(chain, temperatures, 1, sampling)
        columnar = run_flow(chain, temperatures, batch_size, sampling)

        assert _collected(columnar) == _collected(baseline)
        assert columnar["member_stats"] == baseline["member_stats"]
        assert columnar["counters"] == baseline["counters"]
        assert columnar["dead_letters"] == baseline["dead_letters"]


class TestColumnarDeadLetterParity:
    @given(columnar_chains, temperature_streams,
           st.sampled_from(BATCH_SIZES))
    @settings(max_examples=15, deadline=None)
    def test_dead_letter_records_match(self, chain, temperatures,
                                       batch_size):
        """Failing the hosting node mid-stream audits identically."""
        # On a batch boundary, so both runs lose the same readings.
        fail_at = max(1, len(temperatures) // 2 // batch_size) * batch_size
        baseline = run_flow(chain, temperatures, 1, fail_at=fail_at)
        columnar = run_flow(chain, temperatures, batch_size,
                            fail_at=fail_at)
        assert columnar["dead_letters"] == baseline["dead_letters"]
        assert _collected(columnar) == _collected(baseline)


# -- representation roundtrip ------------------------------------------------

payload_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-10**6, max_value=10**6),
    st.text(max_size=8),
    st.booleans(),
    st.none(),
)


@st.composite
def uniform_batches(draw):
    """Uniform-schema tuple runs, with values that would make any
    numeric expression fail on some rows (strings, Nones, booleans) —
    the error-quarantine candidates must transpose and come back."""
    fields = draw(st.lists(
        st.text(
            alphabet=st.characters(min_codepoint=97, max_codepoint=122),
            min_size=1, max_size=6,
        ),
        min_size=1, max_size=4, unique=True,
    ))
    count = draw(st.integers(min_value=1, max_value=16))
    rows = draw(st.lists(
        st.tuples(*[payload_values for _ in fields]),
        min_size=count, max_size=count,
    ))
    return [
        SensorTuple(
            payload=dict(zip(fields, values)),
            stamp=SttStamp(time=float(i), location=Point(0.0, 0.0)),
            source="roundtrip",
            seq=i,
        )
        for i, values in enumerate(rows)
    ]


class TestRoundtrip:
    @given(uniform_batches())
    @settings(max_examples=60, deadline=None)
    def test_transpose_and_materialize_is_identity(self, tuples):
        col = ColumnarBatch.from_tuples(tuples)
        assert col is not None
        out = col.to_tuples()
        assert out == tuples
        # Clean batches hand back the very same objects (memo-preserving).
        assert all(a is b for a, b in zip(out, tuples))

    @given(uniform_batches(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_selection_materialization_matches_row_subsetting(self, tuples,
                                                              data):
        col = ColumnarBatch.from_tuples(tuples)
        selection = data.draw(st.lists(
            st.integers(min_value=0, max_value=len(tuples) - 1),
            unique=True,
        ))
        selection.sort()
        fork = col.fork()
        fork.set_column("marker", list(range(len(tuples))))
        out = fork.to_tuples(selection)
        assert [t.seq for t in out] == [tuples[i].seq for i in selection]
        assert [list(t.payload.items()) for t in out] == [
            list(tuples[i].payload.items()) + [("marker", i)]
            for i in selection
        ]
