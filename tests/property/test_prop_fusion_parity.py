"""Property-based tests: operator fusion is semantically invisible.

DESIGN.md's §14 promise: fusing a chain of non-blocking operators into
one process changes *where* member code runs, never *what* the flow
computes or reports.  For a random fusible chain (length 2–5), a random
reading stream, either publish mode (tuple-at-a-time or batches of 16)
and either trace-sampling rate, a fused deployment must leave every
observable — sink contents, per-source tuple order, dead-letter audit
records, per-member ``process_tuples_total`` counters and per-member
``OperatorStats`` — identical to deploying the same flow with
``fuse=False``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.property._pipeline import SOUND_KINDS, run_flow

BATCH_SIZES = (1, 16)
SAMPLING_RATES = (0.0, 0.5)

# Every drawn chain is fusible end to end (all four kinds are in
# FUSIBLE_KINDS and the flow wires them single-in/single-out), so the
# planner fuses the whole run and the fused/unfused deployments differ
# by exactly the machinery under test.
fusible_chains = st.lists(
    st.tuples(st.sampled_from(SOUND_KINDS), st.integers(0, 30)),
    min_size=2, max_size=5,
)

temperature_streams = st.lists(
    st.floats(min_value=-20.0, max_value=45.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=64,
)


def _collected(run) -> list:
    """Sink contents in arrival order, without the (sampled) traces."""
    return [(t.seq, t.values()) for t in run["collected"]]


class TestFusionParity:
    @given(fusible_chains, temperature_streams,
           st.sampled_from(BATCH_SIZES), st.sampled_from(SAMPLING_RATES))
    @settings(max_examples=40, deadline=None)
    def test_fused_pipeline_is_equivalent(self, chain, temperatures,
                                          batch_size, sampling):
        baseline = run_flow(chain, temperatures, batch_size, sampling,
                            fuse=False)
        fused = run_flow(chain, temperatures, batch_size, sampling,
                         fuse=True)

        assert _collected(fused) == _collected(baseline)
        assert fused["member_stats"] == baseline["member_stats"]
        assert fused["counters"] == baseline["counters"]
        # No member counter silently vanished into an "a+b" label.
        assert all(value is not None
                   for value in fused["counters"].values()) \
            or not baseline["collected"]
        assert fused["dead_letters"] == baseline["dead_letters"]


class TestFusionDeadLetterParity:
    @given(fusible_chains, temperature_streams,
           st.sampled_from(BATCH_SIZES))
    @settings(max_examples=20, deadline=None)
    def test_dead_letter_records_match(self, chain, temperatures,
                                       batch_size):
        """Failing the hosting node mid-stream audits identically."""
        fail_at = max(1, len(temperatures) // 2)
        baseline = run_flow(chain, temperatures, batch_size, 0.0,
                            fuse=False, fail_at=fail_at)
        fused = run_flow(chain, temperatures, batch_size, 0.0,
                         fuse=True, fail_at=fail_at)
        assert fused["dead_letters"] == baseline["dead_letters"]
        assert _collected(fused) == _collected(baseline)
