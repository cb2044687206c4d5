"""The metrics registry: counters, gauges, and histograms with labels.

The paper's monitor enumerates *what* to surface (tuples per second per
operation, suffering nodes, assignment changes); this module is the *how*:
a process-wide registry of named metric families, each instantiated per
label set (``operator=...``, ``node=...``, ``source=...``), with a text
exposition format for scraping/diffing and a JSON snapshot for artifacts.

A count the data plane already keeps (an operator's ``tuples_in``, the
broker's retries, the simulator's traffic, the monitor's series and log)
is *read* at scrape time through a :class:`Reading`, never counted
twice.  Counts no other layer keeps use ``inc``/``set``/``observe``,
plain attribute updates whose callers fetch the instrument **once** (the
registry get-or-creates) and hold the reference.

Histograms use fixed, caller-chosen bucket boundaries (cumulative counts,
Prometheus-style ``le`` semantics) so snapshots from different runs are
directly comparable.
"""

from __future__ import annotations

import bisect
import json
from typing import Callable

from repro.errors import StreamLoaderError

#: Default histogram boundaries: virtual-clock latencies from 1 ms to 5 min.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0,
)

LabelSet = tuple[tuple[str, str], ...]


def _labelset(labels: dict[str, str]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the OpenMetrics exposition format:
    backslash, double quote, and line feed must be escaped inside the
    quoted value or the exposition text is unparseable."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels: LabelSet) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(value)}"' for key, value in labels
    )
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise StreamLoaderError(f"counter increment must be >= 0: {amount}")
        self.value += amount


class Gauge:
    """A value that can go up and down (utilization, rate, queue depth)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Reading:
    """A read-only counter or gauge: its value is ``read()``, the count
    its owner keeps (never going down, for a counter), as a float."""

    __slots__ = ("read",)

    def __init__(self, read: "Callable[[], float]") -> None:
        self.read = read

    @property
    def value(self) -> float:
        return float(self.read())


class Histogram:
    """Fixed-boundary histogram with cumulative bucket counts."""

    __slots__ = ("boundaries", "counts", "sum", "count")

    def __init__(self, boundaries: "tuple[float, ...]" = DEFAULT_BUCKETS) -> None:
        if not boundaries or list(boundaries) != sorted(set(boundaries)):
            raise StreamLoaderError(
                f"histogram boundaries must be strictly increasing: {boundaries}"
            )
        self.boundaries = tuple(float(b) for b in boundaries)
        #: counts[i] = observations <= boundaries[i]; a final +Inf bucket
        #: is implied by ``count``.
        self.counts = [0] * len(self.boundaries)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        index = bisect.bisect_left(self.boundaries, value)
        for i in range(index, len(self.counts)):
            self.counts[i] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket containing the q-quantile."""
        if not (0.0 <= q <= 1.0):
            raise StreamLoaderError(f"quantile must be in [0, 1]: {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        for boundary, cumulative in zip(self.boundaries, self.counts):
            if cumulative >= rank:
                return boundary
        return float("inf")


class MetricsRegistry:
    """Named metric families, instantiated per label set."""

    def __init__(self) -> None:
        #: name -> (kind, help, {labelset -> instrument})
        self._families: dict[str, tuple[str, str, dict[LabelSet, object]]] = {}

    def _family(self, name: str, kind: str, help_: str) -> dict[LabelSet, object]:
        family = self._families.get(name)
        if family is None:
            family = (kind, help_, {})
            self._families[name] = family
        elif family[0] != kind:
            raise StreamLoaderError(
                f"metric {name!r} already registered as {family[0]}, not {kind}"
            )
        return family[2]

    def counter(self, name: str, help_: str = "", **labels: str) -> Counter:
        instruments = self._family(name, "counter", help_)
        key = _labelset(labels)
        instrument = instruments.get(key)
        if instrument is None:
            instrument = instruments[key] = Counter()
        return instrument  # type: ignore[return-value]

    def gauge(self, name: str, help_: str = "", **labels: str) -> Gauge:
        instruments = self._family(name, "gauge", help_)
        key = _labelset(labels)
        instrument = instruments.get(key)
        if instrument is None:
            instrument = instruments[key] = Gauge()
        return instrument  # type: ignore[return-value]

    def reader(self, name: str, kind: str, read: "Callable[[], float]",
               help_: str = "", **labels: str) -> Reading:
        """Register ``read`` as the ``kind`` ("counter" or "gauge")
        instrument of ``name`` under ``labels``, replacing any there."""
        if kind not in ("counter", "gauge"):
            raise StreamLoaderError(f"a reading is a counter or gauge: {kind}")
        reading = Reading(read)
        self._family(name, kind, help_)[_labelset(labels)] = reading
        return reading

    def histogram(
        self,
        name: str,
        help_: str = "",
        buckets: "tuple[float, ...]" = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        instruments = self._family(name, "histogram", help_)
        key = _labelset(labels)
        instrument = instruments.get(key)
        if instrument is None:
            instrument = instruments[key] = Histogram(buckets)
        return instrument  # type: ignore[return-value]

    def get(self, name: str, **labels: str) -> "object | None":
        """Look up an existing instrument without registering one.

        Readers (the rebalance loop, benchmarks, assertions) use this so
        a probe for ``shard_flush_entries_total{shard="7"}`` of a
        4-shard group answers None instead of minting a zero-valued
        instrument that then pollutes the exposition.
        """
        family = self._families.get(name)
        if family is None:
            return None
        return family[2].get(_labelset(labels))

    def values(self, name: str) -> "list[tuple[dict[str, str], float]]":
        """Every (labels, value) pair of a counter/gauge family, sorted by
        label set.  Read-only view for dashboards and alert rules; returns
        an empty list for unknown or histogram families."""
        family = self._families.get(name)
        if family is None or family[0] == "histogram":
            return []
        return [
            (dict(labels), instrument.value)  # type: ignore[attr-defined]
            for labels, instrument in sorted(family[2].items())
        ]

    # -- export ------------------------------------------------------------

    def expose(self) -> str:
        """Text exposition: ``# HELP`` / ``# TYPE`` headers + one line per
        labeled instrument.  Families are sorted by name (and instruments
        by label set) so two runs that registered the same metrics in a
        different order still produce byte-identical dumps."""
        lines: list[str] = []
        for name, (kind, help_, instruments) in sorted(self._families.items()):
            if help_:
                lines.append(f"# HELP {name} {help_}")
            lines.append(f"# TYPE {name} {kind}")
            for labels, instrument in sorted(instruments.items()):
                rendered = _render_labels(labels)
                if isinstance(instrument, Histogram):
                    for boundary, cum in zip(instrument.boundaries, instrument.counts):
                        bucket = _labelset(dict(labels) | {"le": f"{boundary:g}"})
                        lines.append(
                            f"{name}_bucket{_render_labels(bucket)} {cum}"
                        )
                    inf = _labelset(dict(labels) | {"le": "+Inf"})
                    lines.append(
                        f"{name}_bucket{_render_labels(inf)} {instrument.count}"
                    )
                    lines.append(f"{name}_sum{rendered} {instrument.sum:g}")
                    lines.append(f"{name}_count{rendered} {instrument.count}")
                else:
                    lines.append(f"{name}{rendered} {instrument.value:g}")
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict:
        """JSON-able snapshot of every family and instrument, sorted by
        family name for byte-comparable dumps."""
        out: dict[str, dict] = {}
        for name, (kind, help_, instruments) in sorted(self._families.items()):
            series = []
            for labels, instrument in sorted(instruments.items()):
                entry: dict[str, object] = {"labels": dict(labels)}
                if isinstance(instrument, Histogram):
                    entry["buckets"] = dict(
                        zip((f"{b:g}" for b in instrument.boundaries),
                            instrument.counts)
                    )
                    entry["sum"] = instrument.sum
                    entry["count"] = instrument.count
                else:
                    entry["value"] = instrument.value
                series.append(entry)
            out[name] = {"type": kind, "help": help_, "series": series}
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)
