"""Property-based tests: operator fusion is semantically invisible.

DESIGN.md §14: every drawn chain (2–5 sound members) is fusible end to
end, so the default plan hosts it in one process; published one by one
or in batches of 16, traced or not, it reports what the chain applied on
each tuple reports — the flow oracle's fused slice.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracle.test_flow_oracle import (
    SOUND_KINDS,
    assert_reports_the_reference,
    chains_of,
    clean_streams,
)

fusible_chains = chains_of(SOUND_KINDS, 2, 5)
batch_sizes = st.sampled_from((1, 16))


class TestFusionParity:
    @given(fusible_chains, clean_streams, batch_sizes,
           st.sampled_from((0.0, 0.5)))
    @settings(max_examples=40, deadline=None)
    def test_fused_pipeline_is_equivalent(self, chain, temperatures,
                                          batch_size, sampling):
        assert_reports_the_reference(chain, temperatures, batch_size,
                                     sampling)


class TestFusionDeadLetterParity:
    @given(fusible_chains, clean_streams, batch_sizes)
    @settings(max_examples=20, deadline=None)
    def test_dead_letter_records_match(self, chain, temperatures,
                                       batch_size):
        """Failing the hosting node mid-stream audits per reading."""
        assert_reports_the_reference(chain, temperatures, batch_size, 0.0,
                                     fail=True)
