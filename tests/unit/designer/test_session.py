"""Unit tests for the designer session (the headless web app)."""

import pytest

from repro.dataflow.ops import AggregationSpec, FilterSpec
from repro.designer.session import DesignerSession
from repro.errors import DataflowError, ValidationError


@pytest.fixture
def session(stack) -> DesignerSession:
    return DesignerSession(stack.executor, name="session-flow")


def drawn(session, spec, **ids):
    """Draw ``umeda temperature -> spec -> sink``; returns the source's
    and the operator's ids."""
    src = session.add_source("osaka-temp-umeda")
    op = session.add_operator(spec, node_id=ids.get("op", ""))
    session.connect(src, op)
    session.connect(op, session.add_sink(node_id=ids.get("sink", "")))
    return src, op


class TestDiscovery:
    def test_discover_by_type(self, session):
        found = session.discover(sensor_type="rain")
        assert len(found) == 3
        assert all(m.sensor_type == "rain" for m in found)

    def test_palette_available(self, session):
        assert len(session.palette.operators()) == 10


class TestCanvasEditing:
    def test_source_by_bare_id(self, session):
        src = session.add_source("osaka-temp-umeda")
        assert session.flow.sources[src].filter.sensor_ids == ("osaka-temp-umeda",)

    def test_incremental_validation_feedback(self, session):
        src = session.add_source("osaka-temp-umeda")
        op = session.add_operator(FilterSpec("temperature > 24"))
        assert not session.is_consistent  # dangling operator
        sink = session.add_sink()
        session.connect(src, op)
        session.connect(op, sink)
        assert session.is_consistent
        assert session.issues() == []

    def test_schema_pane_shows_propagated_schema(self, session):
        _, agg = drawn(session, AggregationSpec(
            interval=600.0, attributes=("temperature",), function="MAX"))
        assert "max_temperature" in session.schema_pane(agg)

    def test_schema_pane_for_broken_upstream(self, session):
        _, bad = drawn(session, FilterSpec("ghost > 1"))
        assert "unavailable" in session.schema_pane(bad)

    def test_schema_pane_unknown_node(self, session):
        with pytest.raises(DataflowError):
            session.schema_pane("ghost")

    def test_remove_node(self, session):
        src = session.add_source("osaka-temp-umeda")
        session.remove_node(src)
        assert src not in session.flow


class TestPreview:
    def test_preview_with_probed_sensors(self, session, stack):
        src, hot = drawn(session, FilterSpec("temperature > -100"))
        result = session.preview(
            sensors={src: stack.sensor("osaka-temp-umeda")}, count=4)
        assert len(result.at(src)) == 4
        assert len(result.at(hot)) == 4

    def test_preview_requires_input(self, session):
        session.add_source("osaka-temp-umeda")
        with pytest.raises(DataflowError, match="needs sensors or sample"):
            session.preview()


class TestPersistence:
    def test_save_load_round_trip(self, session):
        drawn(session, FilterSpec("temperature > 24"))
        document = session.save()
        session.load(document)
        assert session.is_consistent
        assert session.save() == document


class TestTranslateDeploy:
    def build_valid(self, session):
        return drawn(session, FilterSpec("temperature > 24"), op="hot",
                     sink="out")[0]

    def test_translate_consistent_canvas(self, session):
        self.build_valid(session)
        program = session.translate()
        assert program.name == "session-flow"
        assert len(program.services) == 3

    def test_translate_inconsistent_refused(self, session):
        session.add_source("osaka-temp-umeda")
        session.add_operator(FilterSpec("temperature > 24"))
        with pytest.raises(ValidationError):
            session.translate()

    def test_deploy_returns_live_handle(self, session, stack):
        self.build_valid(session)
        handle = session.deploy()
        stack.run_until(14 * 3600.0)
        annotations = handle.annotations()
        assert annotations["hot"]["tuples_in"] > 0
        assert annotations["hot"]["node"] in stack.topology.node_ids
        source_note = [v for k, v in annotations.items() if "sensors" in v]
        assert source_note and source_note[0]["delivered"] > 0

    def test_handle_controls(self, session, stack):
        self.build_valid(session)
        handle = session.deploy()
        stack.run_until(3600.0)
        handle.pause()
        assert handle.state.value == "paused"
        handle.resume()
        handle.replace_operator("hot", FilterSpec("temperature > 30"))
        handle.teardown()
        assert handle.state.value == "stopped"
