"""Property: columnar execution is invisible (DESIGN.md §10).

A fused chain of 2–5 columnar members (some quarantining rows), fed
batches of 3, 16 or 32, reports what the chain applied per tuple
reports, payload item order included.  Transposing a uniform batch into
a :class:`ColumnarBatch` and back yields the same tuple objects, and
materializing a selection equals subsetting the rows.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams.columnar import ColumnarBatch
from repro.streams.tuple import SensorTuple
from repro.stt.event import SttStamp
from repro.stt.spatial import Point
from tests.oracle.test_flow_oracle import (
    POISON_KINDS, SOUND_KINDS, assert_reports_the_reference, chains_of,
    temperature_streams,
)

columnar_chains = chains_of(SOUND_KINDS + POISON_KINDS, 2, 5)
batch_sizes = st.sampled_from((3, 16, 32))


class TestColumnarParity:
    @given(columnar_chains, temperature_streams, batch_sizes,
           st.sampled_from((0.0, 0.5)))
    @settings(max_examples=30, deadline=None)
    def test_columnar_pipeline_is_equivalent(self, chain, temperatures,
                                             batch_size, sampling):
        assert_reports_the_reference(chain, temperatures, batch_size, sampling)


class TestColumnarDeadLetterParity:
    @given(columnar_chains, temperature_streams, batch_sizes)
    @settings(max_examples=15, deadline=None)
    def test_dead_letter_records_match(self, chain, temperatures, batch_size):
        """Failing the hosting node mid-stream audits per reading."""
        assert_reports_the_reference(chain, temperatures, batch_size,
                                     fail=True)


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
