"""Unit tests for the tracer: sampling, span trees, eviction, and the
control events that live in the execution log, not in any trace."""

import pytest

from repro.errors import StreamLoaderError
from repro.obs.lineage import LineageStore
from repro.obs.render import (
    format_duration, render_trace, render_trace_tree, slowest_sink_traces,
    trace_for_tuple,
)
from repro.obs.trace import Tracer
from repro.scenario import build_stack
from tests.builders import fused_pipeline


@pytest.fixture
def tracer():
    return Tracer()


class TestSampling:
    def test_sampling_one_records_every_trace(self):
        tracer = Tracer(sampling=1.0)
        contexts = [tracer.start_trace("publish", float(i)) for i in range(10)]
        assert all(ctx is not None for ctx in contexts)
        assert tracer.traces_started == 10

    def test_sampling_zero_records_nothing(self):
        tracer = Tracer(sampling=0.0)
        assert not tracer.enabled
        assert tracer.start_trace("publish", 0.0) is None
        assert tracer.traces_started == 0

    def test_error_diffusion_is_exact_for_quarter_rate(self):
        tracer = Tracer(sampling=0.25)
        sampled = [
            tracer.start_trace("publish", float(i)) is not None
            for i in range(12)
        ]
        # Every 4th publication exactly, deterministically.
        assert sampled == [False, False, False, True] * 3

    def test_sampling_out_of_range_rejected(self):
        with pytest.raises(StreamLoaderError):
            Tracer(sampling=1.5)
        with pytest.raises(StreamLoaderError):
            Tracer(sampling=-0.1)


class TestSpans:
    def test_child_context_links_to_parent_span(self, tracer):
        ctx = tracer.start_trace("publish", 0.0, source="s")
        span = tracer.span(ctx, "transmit", 0.0, 1.5)
        child = ctx.child_of(span)
        assert child.trace_id == ctx.trace_id
        assert child.span_id == span.span_id
        leaf = tracer.span(child, "sink", 1.5)
        spans = tracer.trace(ctx.trace_id)
        assert [s.name for s in spans] == ["publish", "transmit", "sink"]
        assert spans[0].parent_id is None
        assert spans[1].parent_id == spans[0].span_id
        assert leaf.parent_id == span.span_id

    def test_span_default_end_is_instantaneous(self, tracer):
        ctx = tracer.start_trace("publish", 3.0)
        span = tracer.span(ctx, "evaluate", 7.0)
        assert span.duration == 0.0

    def test_duration_spans_the_whole_trace(self, tracer):
        ctx = tracer.start_trace("publish", 10.0)
        tracer.span(ctx, "transmit", 10.0, 12.5)
        assert tracer.duration(ctx.trace_id) == pytest.approx(2.5)

    def test_find_by_name_and_attrs(self, tracer):
        ctx = tracer.start_trace("publish", 0.0, source="a")
        tracer.span(ctx, "transmit", 0.0, to="n1")
        tracer.span(ctx, "transmit", 0.0, to="n2")
        assert len(tracer.find("transmit")) == 2
        assert len(tracer.find("transmit", to="n1")) == 1
        assert len(tracer.find(source="a")) == 1


class TestEviction:
    def test_fifo_eviction_beyond_cap(self):
        tracer = Tracer(max_traces=3)
        contexts = [tracer.start_trace("publish", 0.0) for _ in range(5)]
        assert tracer.traces_dropped == 2
        assert tracer.trace(contexts[0].trace_id) == []
        assert tracer.trace(contexts[-1].trace_id) != []
        assert len(tracer.trace_ids()) == 3

    def test_span_into_evicted_trace_is_dropped_quietly(self):
        tracer = Tracer(max_traces=1)
        old = tracer.start_trace("publish", 0.0)
        tracer.start_trace("publish", 1.0)  # evicts `old`
        tracer.span(old, "transmit", 1.0)   # must not raise or resurrect
        assert tracer.trace(old.trace_id) == []


def placements(sampling, at=0.0):
    """The placement records of a fused pipeline deployed at ``at`` on a
    stack tracing at ``sampling``, and the stack's tracer."""
    stack = build_stack(observability=sampling)
    stack.run_until(at)
    stack.executor.deploy(fused_pipeline())
    return stack.executor.monitor.records("placement"), stack.obs.tracer


class TestControlEvents:
    def test_events_live_in_the_control_trace(self):
        records, tracer = placements(1.0)
        assert [r.facts["service"] for r in records] == [
            "keep+double+shift", "fused-out"]
        assert tracer.find("placement") == []  # the log holds them

    def test_events_bypass_sampling(self):
        records, tracer = placements(0.0)
        assert len(records) == 2 and tracer.trace_ids() == []

    def test_bound_clock_supplies_event_time(self):
        records, _ = placements(1.0, at=42.0)
        assert {r.time for r in records} == {42.0}


class TestRendering:
    def _traced(self):
        tracer = Tracer()
        ctx = tracer.start_trace(
            "publish", 0.0, source="rain-1", node="e0", tuple="rain-1#3"
        )
        span = tracer.span(ctx, "transmit", 0.0, 1.2,
                           **{"from": "e0", "to": "hub"})
        child = ctx.child_of(span)
        s2 = tracer.span(
            child, "evaluate", 1.2, node="hub", operator="filter",
            process="p", tuple="rain-1#3",
        )
        tracer.span(
            child.child_of(s2), "sink", 1.2, node="hub",
            operator="collector", process="q", tuple="rain-1#3",
        )
        return tracer, ctx

    def test_tree_shows_every_hop_with_durations(self):
        tracer, ctx = self._traced()
        tree = render_trace_tree(tracer.trace(ctx.trace_id))
        lines = tree.splitlines()
        assert lines[0].startswith("publish rain-1")
        assert "└─ transmit e0 -> hub (1.20s)" in lines[1]
        assert "evaluate filter on hub" in lines[2]
        assert "sink collector on hub" in lines[3]
        # Depth increases along the path.
        assert lines[2].index("evaluate") > lines[1].index("transmit")

    def test_render_trace_resolves_lineage(self):
        tracer, ctx = self._traced()
        out = render_trace(tracer, ctx.trace_id, lineage=LineageStore())
        assert "rain-1#3 -> sink" in out
        assert "lineage: rain-1#3" in out

    def test_slowest_and_tuple_lookup(self, tracer):
        fast = tracer.start_trace("publish", 0.0, tuple="a#1")
        tracer.span(fast, "transmit", 0.0, 0.1)
        tracer.span(fast, "sink", 0.1, tuple="a#1")
        slow = tracer.start_trace("publish", 0.0, tuple="b#1")
        tracer.span(slow, "transmit", 0.0, 9.0)
        tracer.span(slow, "sink", 9.0, tuple="b#1")
        sourced = tracer.start_trace("publish", 0.0, tuple="c#1")
        tracer.span(sourced, "transmit", 0.0, 99.0)  # never reaches a sink
        assert slowest_sink_traces(tracer, 2) == [slow.trace_id, fast.trace_id]
        assert trace_for_tuple(tracer, "b#1") == slow.trace_id
        assert trace_for_tuple(tracer, "nope#0") is None

    def test_format_duration_adapts_units(self):
        assert format_duration(2.5) == "2.50s"
        assert format_duration(0.00403) == "4.03ms"
