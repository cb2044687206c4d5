"""Per-tuple tracing on the virtual clock.

A :class:`TraceContext` is the tiny handle a tuple carries through the
system: the id of its trace plus the id of the span that last touched it.
Every instrumented layer (broker publish, network transmit, operator
evaluate/enqueue/flush, sink) records a :class:`Span` into the central
:class:`Tracer` and re-attaches a child context to the tuple, so the
recorded spans form a tree rooted at the tuple's publication.

Spans are timed on the **virtual clock**: synchronous operator work is
instantaneous (start == end), while network transmissions and retry
backoffs have real extent — exactly the durations the acceptance trace
tree surfaces per hop.

Sampling is head-based and deterministic: the decision is taken once per
trace root with an error-diffusion accumulator (rate 0.25 samples every
4th publication exactly), so runs are reproducible without consuming any
randomness.  An unsampled tuple carries no context and every downstream
instrumentation point short-circuits on ``tuple_.trace is None`` — that is
the whole overhead contract for ``sampling=0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import StreamLoaderError


@dataclass(frozen=True, slots=True)
class TraceContext:
    """The handle a tuple carries: which trace, and the last span on it."""

    trace_id: int
    span_id: int

    def child_of(self, span: "Span") -> "TraceContext":
        """Context for a tuple that just passed through ``span``."""
        return TraceContext(trace_id=self.trace_id, span_id=span.span_id)


@dataclass(slots=True)
class Span:
    """One recorded hop of a trace (times on the virtual clock)."""

    span_id: int
    trace_id: int
    parent_id: "int | None"
    name: str
    start: float
    end: float
    attrs: dict[str, object] = field(default_factory=dict)
    #: Wall-clock stamp at recording time, when the bound clock has one
    #: (the asyncio backend's clock does; the simulator's doesn't).
    #: Virtual times answer "when in the modelled world"; this answers
    #: "when in this run" — the async benchmark's latency source.
    wall: "float | None" = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Central span recorder with deterministic head sampling.

    Args:
        sampling: fraction of traces to record, in [0, 1].  The decision
            is made once, at :meth:`start_trace`; everything downstream
            keys off the presence of a context.
        max_traces: completed-trace retention cap; the oldest traces are
            evicted FIFO so soak runs don't grow without bound.
    """

    def __init__(self, sampling: float = 1.0, max_traces: int = 10_000) -> None:
        if not (0.0 <= sampling <= 1.0):
            raise StreamLoaderError(f"sampling must be in [0, 1]: {sampling}")
        if max_traces <= 0:
            raise StreamLoaderError(f"max_traces must be positive: {max_traces}")
        self.sampling = sampling
        self.max_traces = max_traces
        #: trace id -> spans in recording order.
        self._traces: dict[int, list[Span]] = {}
        self._next_trace = 1
        self._next_span = 1
        self._accumulator = 0.0
        self.traces_started = 0
        self.traces_dropped = 0
        #: Wall-clock source, bound only when the clock exposes one.
        self._wall: "Callable[[], float] | None" = None

    # -- wiring ------------------------------------------------------------

    def bind_clock(self, clock) -> None:
        """Stamp recorded spans with ``clock.wall_now`` when the clock
        exposes one (the asyncio backend's does).  The stamp is
        taken inside :meth:`_record`, which is only reached with a live
        trace context — sampling=0 still costs nothing (the zero-cost
        contract of DESIGN.md §12 holds on every backend).
        """
        self._wall = (
            (lambda: clock.wall_now) if hasattr(clock, "wall_now") else None
        )

    @property
    def enabled(self) -> bool:
        """Whether any trace can currently be started."""
        return self.sampling > 0.0

    # -- recording ---------------------------------------------------------

    def start_trace(self, name: str, now: float, **attrs: object) -> "TraceContext | None":
        """Open a new trace with a root span, or return None if unsampled."""
        self._accumulator += self.sampling
        if self._accumulator < 1.0:
            return None
        self._accumulator -= 1.0
        trace_id = self._next_trace
        self._next_trace += 1
        self.traces_started += 1
        self._traces[trace_id] = []
        if len(self._traces) > self.max_traces:
            del self._traces[next(iter(self._traces))]  # the oldest
            self.traces_dropped += 1
        span = self._record(trace_id, None, name, now, now, attrs)
        return TraceContext(trace_id=trace_id, span_id=span.span_id)

    def span(
        self,
        ctx: TraceContext,
        name: str,
        start: float,
        end: "float | None" = None,
        **attrs: object,
    ) -> Span:
        """Record a span under ``ctx`` and return it (for child contexts)."""
        return self._record(
            ctx.trace_id, ctx.span_id, name, start,
            start if end is None else end, attrs,
        )

    def _record(
        self,
        trace_id: int,
        parent_id: "int | None",
        name: str,
        start: float,
        end: float,
        attrs: dict[str, object],
    ) -> Span:
        span = Span(
            span_id=self._next_span,
            trace_id=trace_id,
            parent_id=parent_id,
            name=name,
            start=start,
            end=end,
            attrs=attrs,
            wall=self._wall() if self._wall is not None else None,
        )
        self._next_span += 1
        spans = self._traces.get(trace_id)
        if spans is not None:
            spans.append(span)
        return span

    # -- queries -----------------------------------------------------------

    def trace(self, trace_id: int) -> list[Span]:
        """Spans of one trace, in recording order (empty if evicted)."""
        return list(self._traces.get(trace_id, ()))

    def trace_ids(self) -> list[int]:
        """Ids of retained traces, oldest first."""
        return list(self._traces)

    def duration(self, trace_id: int) -> float:
        """Wall extent of a trace on the virtual clock."""
        spans = self._traces.get(trace_id)
        if not spans:
            return 0.0
        return max(s.end for s in spans) - min(s.start for s in spans)

    def find(self, name: "str | None" = None, **attrs: object) -> list[Span]:
        """All retained spans matching a name and/or attribute values."""
        out: list[Span] = []
        for spans in self._traces.values():
            for span in spans:
                if name is not None and span.name != name:
                    continue
                if any(span.attrs.get(k) != v for k, v in attrs.items()):
                    continue
                out.append(span)
        return out

    def clear(self) -> None:
        self._traces.clear()
        self._accumulator = 0.0
