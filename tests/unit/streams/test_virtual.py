"""Unit tests for the Virtual Property operator — ⊎ s⟨p, spec⟩.

What it derives and quarantines is a table in the Table 1 spec
(``tests/oracle/test_table1_spec.py``); the ``case`` lines run its rows.
"""

import pytest

from repro.errors import DataflowError
from repro.streams.virtual import APPARENT_TEMPERATURE_SPEC, VirtualPropertyOperator
from tests.oracle.test_table1_spec import case


class TestVirtualProperty:
    test_adds_attribute = case("virtual")
    test_collision_quarantined = case("virtual")
    test_evaluation_error_quarantined = case("virtual")
    test_string_property = case("virtual")

    def test_apparent_temperature_example(self, make_tuple):
        # The paper's running example: apparent temperature from
        # temperature and humidity.  Hot + humid must feel hotter than dry.
        op = VirtualPropertyOperator("apparent", APPARENT_TEMPERATURE_SPEC)
        humid = op.on_tuple(make_tuple(0, temperature=32.0, humidity=0.8))
        dry = op.on_tuple(make_tuple(1, temperature=32.0, humidity=0.2))
        assert humid[0]["apparent"] > dry[0]["apparent"]
        assert humid[0]["apparent"] > 32.0

    def test_empty_name_raises(self):
        with pytest.raises(DataflowError):
            VirtualPropertyOperator("", "1 + 1")

    def test_non_blocking(self):
        assert not VirtualPropertyOperator("x", "1 + 1").is_blocking
