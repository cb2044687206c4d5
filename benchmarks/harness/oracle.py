"""Reference results: what the sinks must hold after a pass.

Plain Python over the generated inputs, no ``repro`` imports.  Each
function mirrors the *semantics* of one Table 1 operator as deployed by
``sut.py`` (a tuple belongs to the window in which it arrives; a trigger
looks back one check interval; the join is a tumbling equi-join), not its
implementation.  Results are multisets; ``digest`` makes them comparable
across runs whose arrival orders differ.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter, deque
from dataclasses import dataclass, field

from .workloads import Inputs


@dataclass
class Expected:
    """Multisets the sinks must equal, plus counts that must repeat."""

    #: (flush instant, station, average) per warehouse row.
    warehouse: Counter = field(default_factory=Counter)
    #: (theme, count, ((attribute, sum), ...)) per Sticker theme.
    sticker: Counter = field(default_factory=Counter)
    #: (station, temperature, humidity, instant) per collected join pair.
    pairs: Counter = field(default_factory=Counter)
    #: (sensor id, seq) of every tuple that must reach the Sticker.
    sticker_keys: set = field(default_factory=set)
    gate_at: "float | None" = None
    suppressed: int = 0
    pushed: int = 0


def digest(multiset: Counter) -> str:
    """Order-insensitive digest of a multiset of plain tuples."""
    h = hashlib.sha256()
    for item in sorted(multiset.items(), key=repr):
        h.update(repr(item).encode())
    return h.hexdigest()[:16]


def mismatches(expected: Counter, actual: Counter) -> int:
    """Results missing from ``actual`` plus results it should not hold."""
    missing = expected - actual
    extra = actual - expected
    return sum(missing.values()) + sum(extra.values())


def gate_instant(inputs: Inputs) -> "float | None":
    """When the Trigger On first fires, or None if it never does.

    Every ``check`` seconds the trigger drops cached readings stamped
    before ``now - check`` from the head of its arrival-ordered cache and
    fires if the mean temperature of the rest exceeds the threshold.
    """
    check = inputs.params["check"]
    threshold = inputs.params["temperature_threshold"]
    arrivals = []
    for sensor in inputs.sensors:
        if sensor.sensor_type != "temperature":
            continue
        for publish_at, first, last in inputs.chunks(sensor):
            for time, payload in sensor.readings[first:last]:
                arrivals.append((publish_at, time, payload["temperature"]))
    arrivals.sort(key=lambda a: a[0])   # stable: batch order is kept
    cache: deque = deque()
    i = 0
    now = check
    while now <= inputs.horizon:
        while i < len(arrivals) and arrivals[i][0] < now:
            cache.append(arrivals[i])
            i += 1
        while cache and cache[0][1] < now - check:
            cache.popleft()
        if cache:
            values = [a[2] for a in cache]
            if sum(values) / len(values) > threshold:
                return now
        now += check
    return None


def _window_end(time: float, window: float) -> float:
    return math.ceil(time / window) * window


def _sticker_bins(pushed: "list[tuple[str, dict]]") -> Counter:
    """Sticker trend bins summed over space: per theme, the push count
    and the sum of every numeric attribute."""
    counts: Counter = Counter()
    sums: dict = {}
    for theme, payload in pushed:
        counts[theme] += 1
        per_theme = sums.setdefault(theme, {})
        for name, value in payload.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                per_theme[name] = per_theme.get(name, 0.0) + float(value)
    return Counter({
        (theme, count, tuple(sorted(sums[theme].items()))): 1
        for theme, count in counts.items()
    })


def _averages(members: dict) -> Counter:
    rows: Counter = Counter()
    for (end, station), values in members.items():
        rows[(end, station, sum(values) / len(values))] += 1
    return rows


def osaka(inputs: Inputs) -> Expected:
    """Gate, fused chain, per-station window averages, Sticker pushes."""
    params = inputs.params
    out = Expected()
    if not params["gate_open"]:
        out.gate_at = gate_instant(inputs)
    gate = -math.inf if params["gate_open"] else out.gate_at
    window = params["window"]
    threshold = params["rain_threshold"]
    pushed = []
    members: dict = {}
    for sensor in inputs.sensors:
        if sensor.sensor_type == "temperature":
            continue
        theme = sensor.themes[0]
        for publish_at, first, last in inputs.chunks(sensor):
            if gate is None or publish_at <= gate:
                out.suppressed += last - first
                continue
            for seq in range(first, last):
                payload = sensor.readings[seq][1]
                if sensor.sensor_type == "rain":
                    if not payload["rain_rate"] > threshold:
                        continue
                    halved = payload["rain_rate"] * 0.5
                    payload = {
                        "rain_rate": halved,
                        "station": payload["station"],
                        "intensity": halved * 0.25 + 1,
                    }
                    key = (_window_end(publish_at, window),
                           payload["station"])
                    members.setdefault(key, []).append(halved)
                pushed.append((theme, payload))
                out.sticker_keys.add((sensor.sensor_id, seq))
    out.pushed = len(pushed)
    out.sticker = _sticker_bins(pushed)
    out.warehouse = _averages(members)
    return out


def keyed(inputs: Inputs) -> Expected:
    """Per-station window averages and the tumbling equi-join."""
    params = inputs.params
    out = Expected()
    members: dict = {}
    left: dict = {}
    right: dict = {}
    for sensor in inputs.sensors:
        is_left = sensor.sensor_type == "temperature"
        for publish_at, first, last in inputs.chunks(sensor):
            join_end = _window_end(publish_at, params["join"])
            for time, payload in sensor.readings[first:last]:
                station = payload["station"]
                if is_left:
                    key = (_window_end(publish_at, params["window"]), station)
                    members.setdefault(key, []).append(payload["temperature"])
                    left.setdefault((join_end, station), []).append(
                        (time, payload["temperature"]))
                else:
                    right.setdefault((join_end, station), []).append(
                        (time, payload["humidity"]))
    out.warehouse = _averages(members)
    for key, lefts in left.items():
        for l_time, temperature in lefts:
            for r_time, humidity in right.get(key, ()):
                out.pairs[(key[1], temperature, humidity,
                           max(l_time, r_time))] += 1
    return out


def expected(inputs: Inputs) -> Expected:
    return osaka(inputs) if inputs.flow == "osaka" else keyed(inputs)
