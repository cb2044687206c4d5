"""Execute the runnable doctest examples embedded in docstrings."""

import doctest

import pytest

import repro.expr
import repro.network.simclock
import repro.stt.units

MODULES = [repro.expr, repro.network.simclock, repro.stt.units]


@pytest.mark.parametrize("module", MODULES,
                         ids=lambda module: module.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module, optionflags=doctest.ELLIPSIS)
    assert result.failed == 0
    assert result.attempted > 0  # the module really carries examples
