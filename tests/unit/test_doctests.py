"""Run every docstring example under ``src/``: a module is collected as
soon as one of its docstrings carries a ``>>>`` line."""

import doctest
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"
MODULES = sorted(
    ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(
        ".__init__")
    for path in SRC.rglob("*.py") if ">>>" in path.read_text())


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module, optionflags=doctest.ELLIPSIS)
    assert result.failed == 0
    assert result.attempted > 0  # the module really carries examples
