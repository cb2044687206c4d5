"""Unit tests for the ``fuse`` clause.  Its rendering and round trip are
pinned by ``goldens/p7-fused-pipeline.dsn`` (a three-member chain after
the channels; every other golden renders without one); the check's rules
are rows of ``tests/unit/dsn/test_check.py``."""

import pytest

from repro.dsn.parse import parse_dsn
from repro.errors import DsnParseError
from tests.unit.dsn.test_check import row
from tests.unit.dsn.test_goldens import golden, p7_fused_pipeline_flow

P7 = "p7-fused-pipeline"


class TestRender:
    test_fuse_free_program_renders_historical_form = golden()
    test_fuse_clause_renders_chain = golden(P7)
    test_fuse_renders_after_channels = golden(P7)


class TestParse:
    test_round_trip = golden(P7)
    test_long_chain_round_trip = golden(P7)

    def test_single_member_fuse_is_a_parse_error(self):
        text = p7_fused_pipeline_flow().render()
        with pytest.raises(DsnParseError, match="line 26"):
            parse_dsn(text[:-2] + '  fuse "hot";\n}\n')


class TestCheck:
    test_undeclared_member_rejected = row("fuse-undeclared")
    test_non_operator_member_rejected = row("fuse-not-operator")
    test_short_chain_rejected = row("fuse-short")
    test_overlapping_hints_rejected = row("fuse-overlap")


class TestGenerate:
    # A drawn program carries no fuse clause (the pipeline-drawn goldens);
    # the chain ``plan_fusion`` pins renders and parses back (p7).
    test_translator_emits_no_hints_by_default = golden()
