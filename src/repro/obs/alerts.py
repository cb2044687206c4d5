"""Deterministic alerting: declarative rules evaluated on the virtual clock.

A rule states an *objective* — ``p99_latency < 5.0 over 60`` reads "the
p99 end-to-end latency over the trailing 60 s must stay below 5 s" — and
the engine fires an alert while the objective is violated.  Three rule
shapes fall out of the two optional fields:

- **threshold**: ``window=0, sustain=0`` — the instantaneous value is
  compared at every tick;
- **sustained-for**: ``sustain=S`` — the breach must persist for S
  seconds of virtual time before the alert fires (transient spikes are
  ignored);
- **SLO burn-rate**: ``window=W`` on a latency-quantile metric — the
  quantile is computed over only the observations of the trailing W
  seconds (a delta between cumulative histogram snapshots), so a burst of
  slow tuples stops burning the budget once the window slides past it.

Metrics a rule can target:

- ``p50_latency`` / ``p90_latency`` / ``p95_latency`` / ``p99_latency`` /
  ``max_latency`` — quantiles of the sink-side ``e2e_latency_seconds``
  histogram (windowed when ``window > 0``);
- ``watermark_lag`` — the worst per-process watermark lag;
- ``saturation`` — the worst per-process saturation;
- any registered **gauge family name** — evaluated against the family's
  max across label sets.

Everything is driven by the virtual clock: the engine ticks at a fixed
cadence via ``schedule_periodic`` (offset half a cadence so ticks never
coincide with flush/emission boundaries), reads only registry instruments
and the latency plane, and records each fire/resolve transition in the
monitor's execution log — so the same seed always produces the same
alert history, byte for byte.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import StreamLoaderError
from repro.obs.latency import LatencyPlane
from repro.obs.metrics import Histogram, MetricsRegistry

#: metric name -> quantile of the e2e latency histogram.
QUANTILE_METRICS = {
    "p50_latency": 0.50,
    "p90_latency": 0.90,
    "p95_latency": 0.95,
    "p99_latency": 0.99,
    "max_latency": 1.0,
}

_COMPARATORS = {
    "<": lambda value, threshold: value < threshold,
    "<=": lambda value, threshold: value <= threshold,
    ">": lambda value, threshold: value > threshold,
    ">=": lambda value, threshold: value >= threshold,
}


@dataclass(frozen=True)
class AlertRule:
    """One declarative objective the engine watches.

    The rule holds the *healthy* condition; the alert fires while the
    condition is false.  ``scope`` is a free-form label (the DSN clause
    puts the flow name there) carried into events and gauges.
    """

    name: str
    metric: str
    op: str
    threshold: float
    window: float = 0.0
    sustain: float = 0.0
    scope: str = ""

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise StreamLoaderError(
                f"alert rule {self.name!r}: unknown comparator {self.op!r}"
            )
        if self.window < 0 or self.sustain < 0:
            raise StreamLoaderError(
                f"alert rule {self.name!r}: window/sustain must be >= 0"
            )

    def describe(self) -> str:
        parts = [f"{self.metric} {self.op} {self.threshold:g}"]
        if self.window:
            parts.append(f"over {self.window:g}s")
        if self.sustain:
            parts.append(f"sustained {self.sustain:g}s")
        return " ".join(parts)


class _HistogramWindow:
    """Rolling-window view over a cumulative histogram.

    Keeps (time, counts, count) snapshots taken at each tick and
    quantiles the *delta* between now and the newest snapshot at least
    ``window`` old.  Before a full window has elapsed the delta covers
    the whole history so far — the natural cold-start reading.
    """

    def __init__(self, histogram: Histogram, window: float) -> None:
        self.histogram = histogram
        self.window = window
        self._snaps: deque[tuple[float, list[int], int]] = deque()

    def quantile(self, now: float, q: float) -> "float | None":
        horizon = now - self.window
        snaps = self._snaps
        while len(snaps) >= 2 and snaps[1][0] <= horizon:
            snaps.popleft()
        if snaps and snaps[0][0] <= horizon:
            base_counts, base_count = snaps[0][1], snaps[0][2]
        else:
            base_counts, base_count = None, 0
        hist = self.histogram
        delta_count = hist.count - base_count
        value: "float | None"
        if delta_count == 0:
            value = None  # no observations in the window: vacuously healthy
        else:
            rank = q * delta_count
            value = float("inf")
            for i, boundary in enumerate(hist.boundaries):
                cumulative = hist.counts[i] - (base_counts[i] if base_counts else 0)
                if cumulative >= rank:
                    value = boundary
                    break
        snaps.append((now, list(hist.counts), hist.count))
        return value


@dataclass
class _RuleState:
    firing: bool = False
    breach_since: "float | None" = None
    last_value: "float | None" = None
    window: "_HistogramWindow | None" = None
    gauge: object = None


#: The execution-log events of a rule's transitions.
TRANSITIONS = ("alert-fire", "alert-resolve")


class AlertEngine:
    """Evaluates :class:`AlertRule` objectives at a fixed virtual cadence."""

    def __init__(
        self,
        metrics: MetricsRegistry,
        plane: "LatencyPlane | None" = None,
        log=None,
        cadence: float = 60.0,
    ) -> None:
        if cadence <= 0:
            raise StreamLoaderError(f"alert cadence must be positive: {cadence}")
        self.metrics = metrics
        self.plane = plane
        #: The monitor's ``log``: each transition becomes one record.
        self.log = log
        self.cadence = cadence
        self.rules: dict[str, AlertRule] = {}
        self._state: dict[str, _RuleState] = {}
        #: Set by :meth:`tick`: the invariant health view at tick time
        #: (the ``repro health --json`` payload reads this, not live
        #: state, so in-flight tuples at the run cutoff can't leak in).
        self.snapshot: "dict | None" = None
        self._now = None

    def add_rule(self, rule: AlertRule) -> None:
        self.rules[rule.name] = rule
        state = _RuleState()
        if rule.metric in QUANTILE_METRICS and rule.window > 0:
            if self.plane is None:
                raise StreamLoaderError(
                    f"alert rule {rule.name!r}: latency metrics need the "
                    f"latency plane installed"
                )
            state.window = _HistogramWindow(self.plane.e2e, rule.window)
        state.gauge = self.metrics.gauge(
            "alerts_firing",
            "1 while the rule's objective is violated, else 0",
            rule=rule.name,
        )
        state.gauge.set(0.0)
        self._state[rule.name] = state

    def remove_rule(self, name: str) -> None:
        """Stop watching rule ``name`` (its flow was torn down)."""
        self.rules.pop(name, None)
        state = self._state.pop(name, None)
        if state is not None:
            state.gauge.set(0.0)

    def start(self, clock, start_delay: "float | None" = None) -> None:
        """Begin ticking on the virtual clock.

        The default offset of half a cadence keeps evaluation instants
        away from the flush/emission boundaries that live on whole
        multiples of their intervals — ticks observe a drained pipeline,
        which is what makes the alert history reproducible across shard
        counts and batch sizes.
        """
        self._now = lambda: clock.now
        if start_delay is None:
            start_delay = self.cadence * 0.5
        clock.schedule_periodic(self.cadence, self.tick, start_delay=start_delay)

    # -- evaluation --------------------------------------------------------

    def _evaluate(self, rule: AlertRule, state: _RuleState,
                  now: float) -> "float | None":
        quantile = QUANTILE_METRICS.get(rule.metric)
        if quantile is not None:
            if state.window is not None:
                return state.window.quantile(now, quantile)
            if self.plane is None or self.plane.e2e.count == 0:
                return None
            return self.plane.e2e.quantile(quantile)
        if rule.metric == "watermark_lag":
            return self.plane.max_watermark_lag() if self.plane else None
        if rule.metric == "saturation":
            return self.plane.max_saturation() if self.plane else None
        values = self.metrics.values(rule.metric)
        if not values:
            return None
        return max(value for _, value in values)

    def tick(self) -> None:
        if self._now is None:
            raise StreamLoaderError("alert engine ticked before start()")
        now = self._now()
        if self.plane is not None:
            self.plane.refresh()
        for name in sorted(self.rules):
            rule = self.rules[name]
            state = self._state[name]
            value = self._evaluate(rule, state, now)
            state.last_value = value
            healthy = value is None or _COMPARATORS[rule.op](
                value, rule.threshold
            )
            if healthy:
                state.breach_since = None
                if state.firing:
                    self._transition(rule, state, now, "resolve", value)
            else:
                if state.breach_since is None:
                    state.breach_since = now
                if (not state.firing
                        and now - state.breach_since >= rule.sustain):
                    self._transition(rule, state, now, "fire", value)
        self.snapshot = self._snapshot(now)

    def _transition(self, rule: AlertRule, state: _RuleState,
                    now: float, event: str, value: "float | None") -> None:
        state.firing = event == "fire"
        state.gauge.set(1.0 if state.firing else 0.0)
        self.metrics.counter(
            "alert_transitions_total",
            "Fire/resolve edges per rule",
            rule=rule.name, event=event,
        ).inc()
        if self.log is not None:
            reading = "cold" if value is None else f"{value:g}"
            self.log(
                rule.name, f"alert-{event}",
                f"{rule.describe()} (value={reading})",
                rule=rule.name, metric=rule.metric, value=value,
                threshold=rule.threshold,
            )

    # -- views -------------------------------------------------------------

    def firing(self) -> list[str]:
        return sorted(
            name for name, state in self._state.items() if state.firing
        )

    def last_values(self) -> dict[str, "float | None"]:
        return {
            name: self._state[name].last_value for name in sorted(self._state)
        }

    def _snapshot(self, now: float) -> dict:
        plane = self.plane
        source_high = None
        services: dict = {}
        if plane is not None:
            if plane.source_high != float("-inf"):
                source_high = plane.source_high
            services = plane.logical_health()
        return {
            "time": now,
            "source_high": source_high,
            "services": services,
            "firing": self.firing(),
            "values": self.last_values(),
        }

    @staticmethod
    def transitions(records) -> list[list]:
        """``[time, "fire" | "resolve", rule, value]`` of every
        transition among the execution-log ``records``, in order."""
        return [
            [record.time, record.event[len("alert-"):],
             record.facts["rule"], record.facts["value"]]
            for record in records if record.event in TRANSITIONS
        ]

    def health_json(self, records) -> dict:
        """The ``repro health --json`` payload: last tick snapshot, rule
        definitions, and the transition history read from ``records``
        (the execution log this engine writes to)."""
        return {
            "snapshot": self.snapshot,
            "rules": {
                name: {
                    "metric": rule.metric,
                    "op": rule.op,
                    "threshold": rule.threshold,
                    "window": rule.window,
                    "sustain": rule.sustain,
                    "scope": rule.scope,
                }
                for name, rule in sorted(self.rules.items())
            },
            "history": self.transitions(records),
        }
