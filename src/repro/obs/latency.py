"""Event-time latency, watermarks, and backpressure: the SLO plane.

PR 3 gave the repo counters ("how many tuples") and traces ("how slow was
this one tuple"); this module answers the operational question in
between: *is the pipeline keeping up, and against what promise?*

Three signal families live here, all driven by the virtual clock:

**Stage latency** — every tuple carries an STT stamp whose ``time`` is
its event time (sensors stamp with the current virtual clock at
emission).  At each stage — publish (broker fan-out), deliver
(subscription hand-off), operator-in (process receive), flush (blocking
timer firing), sink (terminal consumer) — the stage's virtual ``now``
minus the stamp time is recorded into a ``stage_latency_seconds``
histogram labelled per stage and per process (shard suffixes included),
plus one unlabelled ``e2e_latency_seconds`` aggregate at the sinks that
the alert rules quantile over.

**Watermarks** — each process owns a *committed* event time: the event
time it has fully processed.  Non-blocking operators commit continuously
(the max stamp they have processed); blocking operators commit only when
their timer fires, to the flush's virtual time ``now`` — valid because
stamps never exceed the virtual arrival time in this simulator, so a
flush at ``now`` has absorbed every stamp ≤ ``now``.  The *watermark* of
a process is its committed time lowered through the dataflow graph::

    watermark(p) = min(committed(p), min(watermark(u) for u in upstreams(p)))

which is the classic low-watermark propagation rule: a process can never
claim progress beyond what its upstreams have released.  ``watermark_lag``
is the distance from the newest stamp seen at the sources
(``source_high``) to a process's watermark.  Both committed updates are
monotone (max of a monotone stream; flush times follow the clock), and a
min over monotone inputs is monotone — so per-process watermarks never
regress (the Hypothesis property pins this).

**Backpressure** — blocking processes count buffered tuples between
flushes (``queue_depth``) and remember the previous epoch's intake, whose
ratio is the ``saturation`` gauge (0 right after a flush, ~1 when the
buffer holds a full epoch again); the broker tracks per-subscription
in-flight messages (``broker_subscription_backlog``) and the network
simulator per-route in-flight messages (``network_route_inflight``).

Zero-cost contract: nothing in this module runs unless a
:class:`LatencyPlane` is installed (``Observability.ensure_latency()``,
done by the executor only when SLO rules are declared or the caller opts
in).  Hot paths gate on a cached ``is None`` check, exactly like PR 3's
``tuple_.trace is None`` contract.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry, Histogram

_NEG_INF = float("-inf")

#: Histogram boundaries for latency stages: sub-millisecond transmit
#: delays up to multi-interval flush staleness.
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0,
    60.0, 150.0, 300.0, 600.0, 1800.0,
)


class ProcessProbe:
    """Per-process recorder the hot path writes through.

    One probe per :class:`~repro.runtime.process.OperatorProcess`, created
    when the plane is installed and cached on the process — the per-tuple
    cost is a histogram observe plus a float compare, and only when a
    plane exists at all.
    """

    __slots__ = (
        "plane", "key", "service", "blocking", "sink", "hist", "flush_hist",
        "e2e", "pending", "committed", "buffered", "per_epoch", "upstreams",
    )

    def __init__(self, plane: "LatencyPlane", key: str,
                 blocking: bool, sink: bool,
                 service: "str | None" = None) -> None:
        self.plane = plane
        self.key = key
        #: Logical service (a sharded one's shards and merge share it).
        self.service = key if service is None else service
        self.blocking = blocking
        self.sink = sink
        metrics = plane.metrics
        stage = "sink" if sink else "operator"
        self.hist = metrics.histogram(
            "stage_latency_seconds",
            "Event-time latency (virtual now - stamp time) per stage",
            buckets=LATENCY_BUCKETS, stage=stage, process=key,
        )
        self.flush_hist = (
            metrics.histogram(
                "stage_latency_seconds", buckets=LATENCY_BUCKETS,
                stage="flush", process=key,
            )
            if blocking else None
        )
        self.e2e = plane.e2e if sink else None
        #: Max event time seen on the input (pre-commit for blocking ops).
        self.pending = _NEG_INF
        #: Event time fully processed by this process alone.
        self.committed = _NEG_INF
        #: Tuples buffered since the last flush (blocking only).
        self.buffered = 0
        #: Intake of the previous epoch (saturation denominator).
        self.per_epoch = 0
        #: Upstream process keys, set by the executor from the dataflow.
        self.upstreams: tuple[str, ...] = ()

    def note(self, now: float, low: float, high: "float | None" = None,
             count: int = 1) -> None:
        """A message of ``count`` tuples entered this process at ``now``.

        ``low``/``high`` are its oldest and newest stamp time (one stamp
        for a lone tuple; a batch passes its memoized ``stamp_span()``, so
        every probe it crosses shares one scan).  The probe commits *once*
        per message: one running-max update from the newest stamp —
        watermarks are running maxima, so this is bit-identical to
        committing per tuple — and one histogram observe of the *worst*
        stage latency (oldest stamp), the conservative bound an SLO
        quantile cares about.  Histograms therefore count messages, not
        tuples: a per-tuple probe once cost ~60% of receive (recorded in
        ``benchmarks/history/BENCH_8.json``).
        """
        if count == 0:
            return
        if high is None:
            high = low
        self.hist.observe(now - low)
        if high > self.pending:
            self.pending = high
        if self.blocking:
            self.buffered += count
        else:
            if high > self.committed:
                self.committed = high
            if self.e2e is not None:
                self.e2e.observe(now - low)

    def commit_flush(self, now: float, emitted) -> None:
        """A blocking flush fired: commit progress through ``now``.

        Stamps never exceed the virtual arrival time, so everything this
        operator has absorbed carries event time ≤ ``now`` — the flush
        fully processes event time up to the flush instant.
        """
        self.per_epoch = self.buffered
        self.buffered = 0
        if now > self.committed:
            self.committed = now
        flush_hist = self.flush_hist
        if flush_hist is not None:
            for tuple_ in emitted:
                flush_hist.observe(now - tuple_.stamp.time)

    def saturation(self) -> float:
        if not self.blocking:
            return 0.0
        return self.buffered / self.per_epoch if self.per_epoch else 0.0


class LatencyPlane:
    """The installed latency/watermark/backpressure signal plane."""

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.metrics = metrics
        #: process key -> probe; populated by the executor at spawn.
        self.probes: dict[str, ProcessProbe] = {}
        #: Newest stamp seen at any source (broker publish stage).
        self.source_high = _NEG_INF
        #: End-to-end latency at the sinks, aggregated — the histogram
        #: SLO quantile rules evaluate against.
        self.e2e: Histogram = metrics.histogram(
            "e2e_latency_seconds",
            "Event-time latency at the sinks (virtual now - stamp time)",
            buckets=LATENCY_BUCKETS,
        )
        self._publish_hists: dict[str, Histogram] = {}
        self._deliver_hists: dict[str, Histogram] = {}
        #: (source node, target node) -> messages in flight on the route.
        self._route_inflight: dict[tuple[str, str], int] = {}
        self._broker = None
        self._source_gauge = metrics.gauge(
            "source_watermark",
            "Newest event time seen at the sources",
        )

    # -- registration (executor, deploy time) -----------------------------

    def register_process(self, key: str, blocking: bool, sink: bool,
                         service: "str | None" = None) -> ProcessProbe:
        probe = self.probes.get(key)
        if probe is None:
            probe = self.probes[key] = ProcessProbe(
                self, key, blocking, sink, service
            )
        return probe

    def unregister(self, keys) -> None:
        """Drop the probes of stopped processes (a torn-down flow)."""
        for key in keys:
            self.probes.pop(key, None)

    def set_upstreams(self, key: str, upstreams) -> None:
        probe = self.probes.get(key)
        if probe is not None:
            probe.upstreams = tuple(
                up for up in upstreams if up != key and up in self.probes
            )

    def attach_broker(self, broker_network) -> None:
        self._broker = broker_network

    # -- hot-path hooks ----------------------------------------------------

    def note_publish(self, source: str, now: float, low: float,
                     high: "float | None" = None) -> None:
        """A message spanning stamps ``low..high`` was published (same
        contract as :meth:`ProcessProbe.note`: one ``source_high``
        running-max update and one worst-latency observe per message)."""
        if high is None:
            high = low
        if high > self.source_high:
            self.source_high = high
        hist = self._publish_hists.get(source)
        if hist is None:
            hist = self._publish_hists[source] = self.metrics.histogram(
                "stage_latency_seconds", buckets=LATENCY_BUCKETS,
                stage="publish", source=source,
            )
        hist.observe(now - low)

    def note_deliver(self, subscription_id: str, now: float,
                     low: float) -> None:
        """A message whose oldest stamp is ``low`` reached a subscription."""
        hist = self._deliver_hists.get(subscription_id)
        if hist is None:
            hist = self._deliver_hists[subscription_id] = self.metrics.histogram(
                "stage_latency_seconds", buckets=LATENCY_BUCKETS,
                stage="deliver", subscription=subscription_id,
            )
        hist.observe(now - low)

    def link_send(self, source: str, target: str) -> None:
        key = (source, target)
        self._route_inflight[key] = self._route_inflight.get(key, 0) + 1

    def link_done(self, source: str, target: str) -> None:
        key = (source, target)
        count = self._route_inflight.get(key, 0)
        if count > 0:
            self._route_inflight[key] = count - 1

    # -- watermarks --------------------------------------------------------

    def _watermark_raw(self, key: str, memo: dict, visiting: set) -> float:
        cached = memo.get(key)
        if cached is not None:
            return cached
        probe = self.probes.get(key)
        if probe is None:
            return _NEG_INF
        low = probe.committed
        visiting.add(key)
        for up in probe.upstreams:
            if up in visiting:  # defensive: DSN graphs are DAGs
                continue
            up_mark = self._watermark_raw(up, memo, visiting)
            if up_mark < low:
                low = up_mark
        visiting.discard(key)
        memo[key] = low
        return low

    def watermark(self, key: str, _memo: "dict | None" = None) -> "float | None":
        """Low watermark of one process (None until it has progress)."""
        memo = _memo if _memo is not None else {}
        mark = self._watermark_raw(key, memo, set())
        return None if mark == _NEG_INF else mark

    def watermark_lag(self, key: str,
                      _memo: "dict | None" = None) -> "float | None":
        """Event-time distance from the newest source stamp to ``key``'s
        watermark; None while either side is still cold."""
        if self.source_high == _NEG_INF:
            return None
        mark = self.watermark(key, _memo)
        if mark is None:
            return None
        return max(0.0, self.source_high - mark)

    def max_watermark_lag(self) -> "float | None":
        """The worst lag across all processes (the alert-rule scalar)."""
        memo: dict = {}
        worst = None
        for key in self.probes:
            lag = self.watermark_lag(key, memo)
            if lag is not None and (worst is None or lag > worst):
                worst = lag
        return worst

    def max_saturation(self) -> float:
        return max(
            (probe.saturation() for probe in self.probes.values()),
            default=0.0,
        )

    # -- derived views -----------------------------------------------------

    def logical_health(self) -> dict:
        """Per *logical service* watermark/saturation view.

        A sharded service runs as several processes, one per shard plus
        its merge, and their number varies with the shard count while the
        conceptual dataflow does not.  Grouping probes by the service they
        were registered under and taking the min watermark / summed queue
        depth yields a view that is identical across shard counts and
        batch sizes (the alert-determinism property byte-compares it).
        """
        memo: dict = {}
        groups: dict[str, list[ProcessProbe]] = {}
        for probe in self.probes.values():
            groups.setdefault(probe.service, []).append(probe)
        out: dict[str, dict] = {}
        for name in sorted(groups):
            probes = groups[name]
            marks = [self.watermark(probe.key, memo) for probe in probes]
            mark = None if any(m is None for m in marks) else min(marks)
            lag = None
            if mark is not None and self.source_high != _NEG_INF:
                lag = max(0.0, self.source_high - mark)
            depth = sum(p.buffered for p in probes if p.blocking)
            intake = sum(p.per_epoch for p in probes if p.blocking)
            out[name] = {
                "watermark": mark,
                "lag": lag,
                "queue_depth": depth,
                "saturation": depth / intake if intake else 0.0,
            }
        return out

    def refresh(self) -> None:
        """Publish the derived gauges into the registry.

        Called on the monitor's sample cadence, at each alert tick, and by
        the health CLI — never per tuple.
        """
        metrics = self.metrics
        if self.source_high != _NEG_INF:
            self._source_gauge.set(self.source_high)
        memo: dict = {}
        for key, probe in self.probes.items():
            lag = self.watermark_lag(key, memo)
            if lag is not None:
                metrics.gauge(
                    "watermark_lag_seconds",
                    "Event-time lag behind the newest source stamp",
                    process=key,
                ).set(lag)
            if probe.blocking:
                metrics.gauge(
                    "queue_depth",
                    "Tuples buffered since the last flush",
                    process=key,
                ).set(probe.buffered)
                metrics.gauge(
                    "saturation",
                    "Buffered tuples relative to the last epoch's intake",
                    process=key,
                ).set(probe.saturation())
        broker = self._broker
        if broker is not None:
            for subscription in broker.iter_subscriptions():
                metrics.gauge(
                    "broker_subscription_backlog",
                    "Published-but-undelivered messages per subscription",
                    subscription=str(subscription.subscription_id),
                ).set(subscription.inflight)
        for (source, target), count in self._route_inflight.items():
            metrics.gauge(
                "network_route_inflight",
                "Messages in flight per network route",
                route=f"{source}->{target}",
            ).set(count)
