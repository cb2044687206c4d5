"""Cross-layer observability: metrics, per-tuple traces, and lineage.

One :class:`Observability` bundle threads through the whole stack — the
broker starts traces at publication, the network simulator times transmit
hops, operator processes record evaluate/enqueue/flush/sink spans,
blocking operators record lineage, and the monitor publishes its series
through the metrics registry.  ``sampling`` throttles tracing head-on;
metrics and lineage are unconditional (they are cheap counters and
flush-time bookkeeping, not per-hop allocations).
"""

from __future__ import annotations

from repro.obs.alerts import AlertEngine, AlertRule
from repro.obs.latency import LATENCY_BUCKETS, LatencyPlane, ProcessProbe
from repro.obs.lineage import LineageRecord, LineageStore, tuple_key
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    DEFAULT_BUCKETS,
)
from repro.obs.render import (
    render_health,
    render_trace,
    render_trace_tree,
    sink_trace_ids,
    slowest_sink_traces,
    trace_for_tuple,
)
from repro.obs.trace import Span, TraceContext, Tracer


class Observability:
    """The bundle the runtime layers share: registry + tracer + lineage."""

    def __init__(
        self,
        sampling: float = 1.0,
        max_traces: int = 10_000,
        max_lineage: int = 50_000,
    ) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(sampling=sampling, max_traces=max_traces)
        self.lineage = LineageStore(max_records=max_lineage)
        #: The latency/watermark/SLO plane — None until installed.  The
        #: executor installs it when SLO rules are declared; everything
        #: on the hot path gates on the resulting ``is None`` checks, so
        #: an absent plane costs nothing (the PR 3 zero-cost contract).
        self.latency: "LatencyPlane | None" = None

    @property
    def sampling(self) -> float:
        return self.tracer.sampling

    def ensure_latency(self) -> LatencyPlane:
        """Install (or return) the latency plane."""
        if self.latency is None:
            self.latency = LatencyPlane(self.metrics)
        return self.latency


__all__ = [
    "AlertEngine",
    "AlertRule",
    "LATENCY_BUCKETS",
    "LatencyPlane",
    "ProcessProbe",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "LineageRecord",
    "LineageStore",
    "MetricsRegistry",
    "Observability",
    "Span",
    "TraceContext",
    "Tracer",
    "render_health",
    "render_trace",
    "render_trace_tree",
    "sink_trace_ids",
    "slowest_sink_traces",
    "trace_for_tuple",
    "tuple_key",
]
