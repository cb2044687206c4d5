"""Unit tests for the designer's live deployment handle."""

import pytest

from repro.dataflow.ops import FilterSpec
from repro.designer.session import DesignerSession
from repro.errors import DataflowError
from repro.scenario import build_stack


@pytest.fixture
def stack():
    return build_stack()


@pytest.fixture
def session(stack):
    session = DesignerSession(stack.executor, name="handle-test")
    src = session.add_source("osaka-temp-umeda", node_id="src")
    hot = session.add_operator(FilterSpec("temperature > -100"), node_id="hot")
    out = session.add_sink(node_id="out")
    session.connect(src, hot)
    session.connect(hot, out)
    return session


class TestRender:
    def test_ascii(self, session):
        text = session.render()
        assert "handle-test" in text
        assert "hot [filter]" in text

    def test_dot(self, session):
        dot = session.render("dot")
        assert dot.startswith('digraph "handle-test"')

    def test_unknown_format(self, session):
        with pytest.raises(DataflowError):
            session.render("svg")


class TestReassignments:
    def test_only_own_changes_reported(self, stack, session):
        handle = session.deploy()
        stack.run_until(600.0)
        # A reassignment in another deployment must not leak in.
        stack.executor.monitor.log("other-flow:x", "reassigned")
        victim = handle.deployment.process("hot").node_id
        stack.topology.node(victim).register_process("hog", demand=5000.0)
        stack.run_until(1800.0)
        own = handle.reassignments()
        assert own
        assert all(c.source.startswith("handle-test:") for c in own)

    def test_empty_before_any_migration(self, stack, session):
        handle = session.deploy()
        stack.run_until(300.0)
        assert handle.reassignments() == []
