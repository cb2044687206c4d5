"""Property-based tests: the batched data plane is semantically invisible.

DESIGN.md §11: publishing a random sound chain's readings in runs of N
reports what the chain applied on each tuple reports — the flow oracle's
slice with no observability and no runtime errors.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracle.test_flow_oracle import (
    SOUND_KINDS,
    assert_reports_the_reference,
    chains_of,
    clean_streams,
)


class TestBatchParity:
    @given(chains_of(SOUND_KINDS, 0, 4), clean_streams,
           st.sampled_from((2, 7, 32)))
    @settings(max_examples=60, deadline=None)
    def test_batched_pipeline_is_equivalent(self, chain, temperatures,
                                            batch_size):
        assert_reports_the_reference(chain, temperatures, batch_size)
