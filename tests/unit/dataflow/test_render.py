"""Unit tests for canvas rendering (DOT + ASCII)."""

import pytest

from repro.dataflow.render import render_ascii, to_dot
from repro.dsn.ast import DsnProgram
from tests.unit.dsn.test_goldens import (
    p1_apparent_temperature_flow, p2_torrential_rain_flow,
)


@pytest.fixture
def flow() -> DsnProgram:
    return p2_torrential_rain_flow()


class TestDot:
    def test_all_nodes_and_edges_present(self, flow):
        dot = to_dot(flow)
        for node_id in ("temp", "rain", "hot-hour", "torrential", "dw"):
            assert f'"{node_id}"' in dot
        assert '"rain" -> "torrential"' in dot
        assert '"hot-hour" -> "rain"' in dot and "dashed" in dot

    def test_shapes_by_role(self, flow):
        dot = to_dot(flow)
        assert "shape=house" in dot
        assert "shape=box" in dot
        assert "shape=cylinder" in dot

    def test_dormant_sources_marked(self, flow):
        dot = to_dot(flow)
        assert "(dormant)" in dot
        assert 'label="rain\\n(dormant)"' in dot  # one DOT line break

    def test_quotes_escaped(self):
        flow = DsnProgram('with "quotes"')
        assert 'digraph "with \\"quotes\\""' in to_dot(flow)

    def test_port_labels_on_joins(self):
        assert 'label="port 1"' in to_dot(p1_apparent_temperature_flow())


class TestAscii:
    def test_layers_follow_topology(self, flow):
        text = render_ascii(flow)
        assert text.index("layer 0") < text.index("layer 1")
        assert "temp (src)" in text
        assert "rain (src, dormant)" in text
        assert "hot-hour [trigger-on]" in text
        assert "dw <warehouse>" in text

    def test_edges_listed(self, flow):
        text = render_ascii(flow)
        assert "rain --> torrential" in text
        assert "hot-hour ~~> rain" in text

    def test_empty_flow(self):
        text = render_ascii(DsnProgram("empty"))
        assert "empty" in text
