"""Seeded replay inputs for the four named workloads.

Pure Python, no ``repro`` imports: this module decides *what is offered*
to the system (which sensor reads which value at which virtual instant,
and how readings are grouped into publish calls); ``sut.py`` turns it
into stamped tuples and clock callbacks, ``oracle.py`` computes what
the sinks must hold.  The same seed gives the same inputs, bit for bit.

Every value that is later summed or averaged is a multiple of 1/8 of
modest size, so float sums are exact in any order — the oracle can
compare sink contents exactly across batch sizes and backends, whose
arrival orders differ.

Every reading instant keeps a guard distance from the flush instants of
the blocking operators (multiples of the trigger interval, which divides
the aggregation and join windows).  A blocking operator assigns a tuple
to the window in which it *arrives*; with the guard, arrival (publish
instant plus at most a few simulated milliseconds of network) and
publish instant always fall in the same window, so the oracle needs no
model of the network.
"""

from __future__ import annotations

import math
import random
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

#: Workload name -> why it exists (copied into BENCHMARK.json).
WHY = {
    "osaka-replay-b1": (
        "paper-shaped gated flow, tuple-at-a-time: per-message layers "
        "(broker, netsim, simclock, process) carry the cost"
    ),
    "osaka-replay-b32": (
        "same flow in micro-batches of 32: per-message cost amortised, "
        "so fused columnar chain, aggregation and sinks carry the cost"
    ),
    "keyed-state-b32": (
        "blocking operators only: Zipf-keyed sharded elastic aggregation "
        "plus equi-join, no fused chain; state size and key skew"
    ),
    "async-openloop-b1": (
        "asyncio backend, free-run plus open-loop Poisson arrivals at "
        "2000/4000/8000 tuples/s: the only workload with queueing"
    ),
}

#: Offered rates of the open-loop ladder, tuples per second.
RATES = (2000, 4000, 8000)
#: The ladder step whose median latency is the end-to-end latency metric.
LATENCY_RATE = 4000

#: Sizes are chosen so that one run (1 warm-up + 5 measured passes, each
#: on a fresh stack with its own set-up) takes about this many seconds of
#: measured window at ``--seconds`` equal to it; other ``--seconds``
#: values scale the input horizon linearly.
REFERENCE_SECONDS = 20


@dataclass(frozen=True)
class SensorSpec:
    """One replay sensor: its advertisement and every reading it makes."""

    sensor_id: str
    sensor_type: str
    attrs: tuple
    themes: tuple
    index: int
    #: (virtual instant, payload) in time order.
    readings: list = field(compare=False)


@dataclass(frozen=True)
class Segment:
    """One open-loop segment on the paced timeline."""

    rate: int
    start: float
    measure_from: float
    end: float


@dataclass(frozen=True)
class Inputs:
    """Everything one pass offers to the system under test."""

    workload: str
    seed: int
    flow: str          # "osaka" | "keyed"
    backend: str       # "sim" | "async"
    batch: int
    sensors: list
    #: Virtual instant to run to (after the last flush has drained).
    horizon: float
    params: dict
    #: Pacing of the asyncio backend: None free-runs, 1.0 is real time.
    time_scale: "float | None" = None
    segments: tuple = ()

    @property
    def tuples(self) -> int:
        return sum(len(s.readings) for s in self.sensors)

    def chunks(self, sensor: SensorSpec) -> "list[tuple[float, int, int]]":
        """``(publish instant, first, last+1)`` for each publish call.

        A source flushes when ``batch`` readings have accumulated, so a
        batch is published at the instant of its last reading.
        """
        n = len(sensor.readings)
        out = []
        for first in range(0, n, self.batch):
            last = min(first + self.batch, n)
            out.append((sensor.readings[last - 1][0], first, last))
        return out


# -- the Osaka replay --------------------------------------------------------

#: Gateways per stream; each rain gateway reports 32 stations in turn.
RAIN_GATEWAYS = 64
TWEET_GATEWAYS = 16
STATIONS_PER_GATEWAY = 32

OSAKA_PARAMS = {
    "rain_threshold": 10.0,
    "temperature_threshold": 25.0,
}


def _eighths(rng: random.Random, below: int) -> float:
    return rng.randrange(below * 8) / 8


def _rain(rng: random.Random, gateway: int, turn: int) -> dict:
    station = turn % STATIONS_PER_GATEWAY
    return {
        "rain_rate": _eighths(rng, 64),
        "station": f"st-{gateway:02d}-{station:02d}",
    }


def _tweet(rng: random.Random) -> dict:
    return {
        "text": f"heavy rain near ward {rng.randrange(24)}",
        "retweets": rng.randrange(64),
    }


def _temperature(rng: random.Random, hot: bool) -> dict:
    return {
        "temperature": (30.0 if hot else 20.0) + _eighths(rng, 2),
        "station": "osaka-temp",
    }


def _osaka_specs(readings_by_sensor: dict) -> list:
    """SensorSpecs in a fixed order from ``sensor_id -> readings``."""
    kinds = {
        "temp": ("temperature",
                 (("temperature", "float"), ("station", "string")),
                 ("weather/temperature",)),
        "rain": ("rain",
                 (("rain_rate", "float"), ("station", "string")),
                 ("weather/rain",)),
        "tweets": ("twitter",
                   (("text", "string"), ("retweets", "int")),
                   ("social/tweet",)),
    }
    specs = []
    for index, (sensor_id, readings) in enumerate(readings_by_sensor.items()):
        sensor_type, attrs, themes = kinds[sensor_id.split("-")[0]]
        specs.append(SensorSpec(sensor_id, sensor_type, attrs, themes,
                                index, readings))
    return specs


def osaka_sim(workload: str, seed: int, windows: int, batch: int,
              window: float = 128.0) -> Inputs:
    """The gated Osaka flow on a regular virtual-time grid.

    One temperature feed (8 readings/s), 64 rain gateways and 16 tweet
    gateways (1 reading/s each).  Temperatures are cool for about the
    first fifth of the horizon (at least one check interval), then hot,
    so the trigger opens the gate at one deterministic check instant.
    The check interval is the span of a rain batch of 32 and ``window``
    a multiple of it, so gate and windows fall on batch boundaries and
    batch 1 and batch 32 deliver exactly the same tuples to the same
    windows.
    """
    rng = random.Random(seed)
    check = 32.0
    horizon = windows * window
    hot_from = max(1, math.floor(0.2 * horizon / check)) * check
    by_sensor: dict = {}
    by_sensor["temp-0"] = [
        (t, _temperature(rng, t >= hot_from))
        for t in (0.0625 + i * 0.125 for i in range(int(horizon * 8)))
    ]
    seconds = int(horizon)
    for g in range(RAIN_GATEWAYS):
        phase = rng.randrange(100, 900) / 1000
        by_sensor[f"rain-{g:02d}"] = [
            (phase + i, _rain(rng, g, i)) for i in range(seconds)
        ]
    for g in range(TWEET_GATEWAYS):
        phase = rng.randrange(100, 900) / 1000
        by_sensor[f"tweets-{g:02d}"] = [
            (phase + i, _tweet(rng)) for i in range(seconds)
        ]
    params = dict(OSAKA_PARAMS, window=window, check=check, gate_open=False)
    return Inputs(workload, seed, "osaka", "sim", batch,
                  _osaka_specs(by_sensor), horizon + 1.0, params)


#: Open-loop timeline constants (virtual seconds == wall seconds).
OPEN_WINDOW = 0.25
OPEN_CHECK = 0.125
OPEN_GUARD = 0.002
#: Stream of each arrival, cycled: 1 temperature : 8 rain : 2 tweets.
_MIX = ("temp", "rain", "rain", "rain", "rain", "tweets",
        "rain", "rain", "rain", "rain", "tweets")


def _guarded(tau: float) -> float:
    """Map 'allowed' time onto the timeline, skipping the guard zones.

    Every ``OPEN_CHECK`` seconds a zone of ``2 * OPEN_GUARD`` around the
    flush instant carries no arrivals; Poisson arrivals are drawn in the
    remaining time and stretched over the gaps, which keeps the mean
    offered rate and the ordering.
    """
    span = OPEN_CHECK - 2 * OPEN_GUARD
    k = math.floor(tau / span)
    return k * OPEN_CHECK + OPEN_GUARD + (tau - k * span)


def _poisson_readings(rng: random.Random, by_sensor: dict, turns: dict,
                      rate: float, start: float, end: float) -> None:
    """Append Poisson arrivals at ``rate`` over [start, end) to the feeds."""
    scale = (OPEN_CHECK - 2 * OPEN_GUARD) / OPEN_CHECK
    tau, tau_end = start * scale, end * scale
    n = turns["n"]
    while True:
        tau += rng.expovariate(rate / scale)
        if tau >= tau_end:
            break
        t = _guarded(tau)
        stream = _MIX[n % len(_MIX)]
        if stream == "temp":
            by_sensor["temp-0"].append((t, _temperature(rng, True)))
        elif stream == "rain":
            g = turns["rain"] % RAIN_GATEWAYS
            turn = turns["rain"] // RAIN_GATEWAYS
            turns["rain"] += 1
            by_sensor[f"rain-{g:02d}"].append((t, _rain(rng, g, turn)))
        else:
            g = turns["tweets"] % TWEET_GATEWAYS
            turns["tweets"] += 1
            by_sensor[f"tweets-{g:02d}"].append((t, _tweet(rng)))
        n += 1
    turns["n"] = n


def _open_feeds() -> "tuple[dict, dict]":
    by_sensor: dict = {"temp-0": []}
    for g in range(RAIN_GATEWAYS):
        by_sensor[f"rain-{g:02d}"] = []
    for g in range(TWEET_GATEWAYS):
        by_sensor[f"tweets-{g:02d}"] = []
    return by_sensor, {"n": 0, "rain": 0, "tweets": 0}


def _open_inputs(workload, seed, backend, by_sensor, end, time_scale,
                 segments=()) -> Inputs:
    params = dict(OSAKA_PARAMS, window=OPEN_WINDOW, check=OPEN_CHECK,
                  gate_open=True)
    sensors = [s for s in _osaka_specs(by_sensor) if s.readings]
    # Run past the flush that closes the last window, plus drain time.
    horizon = math.ceil(end / OPEN_WINDOW) * OPEN_WINDOW + OPEN_WINDOW / 2
    return Inputs(workload, seed, "osaka", backend, 1, sensors, horizon,
                  params, time_scale, tuple(segments))


def osaka_freerun(workload: str, seed: int, tuples: int,
                  backend: str = "async") -> Inputs:
    """Segment 0: the gate-open flow over a fixed tuple count, unpaced."""
    rng = random.Random(seed)
    by_sensor, turns = _open_feeds()
    end = tuples / LATENCY_RATE
    _poisson_readings(rng, by_sensor, turns, LATENCY_RATE, 0.0, end)
    return _open_inputs(workload, seed, backend, by_sensor, end, None)


def osaka_openloop(workload: str, seed: int, warm: float,
                   measure: float) -> Inputs:
    """Segments 1-3 on one real-time timeline, lowest rate first.

    Each segment offers Poisson arrivals at its fixed rate for ``warm``
    (discarded) plus ``measure`` seconds; a quiet gap between segments
    lets any backlog drain, and the rate above capacity comes last so
    its backlog cannot leak into another segment.
    """
    rng = random.Random(seed + 1)
    by_sensor, turns = _open_feeds()
    gap = OPEN_WINDOW
    segments = []
    start = 0.0
    for rate in RATES:
        end = start + warm + measure
        _poisson_readings(rng, by_sensor, turns, rate, start, end)
        segments.append(Segment(rate, start, start + warm, end))
        start = math.ceil((end + gap) / OPEN_WINDOW) * OPEN_WINDOW
    return _open_inputs(workload, seed, "async", by_sensor,
                        segments[-1].end, 1.0, segments)


# -- keyed state -------------------------------------------------------------

KEYED_STATIONS = 5120
KEYED_GATEWAYS = 16
ZIPF_EXPONENT = 1.1


def keyed_sim(workload: str, seed: int, join_windows: int,
              batch: int) -> Inputs:
    """Zipf-keyed temperatures against uniformly keyed humidity.

    16 temperature and 16 humidity gateways emit 10 readings/s each.  A
    temperature reading's station is Zipf(1.1) over 5120 stations; the
    humidity gateways together report every station exactly once per join
    window (a fresh shuffle each window), so each temperature reading
    meets exactly one humidity reading and the join emits one pair per
    left tuple.
    """
    rng = random.Random(seed)
    join = 32.0
    window = 64.0
    period = 0.1
    per_window = int(join / period)                    # per gateway
    assert per_window * KEYED_GATEWAYS == KEYED_STATIONS
    stations = [f"k-{i:04d}" for i in range(KEYED_STATIONS)]
    cum = list(accumulate(
        1.0 / (rank ** ZIPF_EXPONENT)
        for rank in range(1, KEYED_STATIONS + 1)
    ))
    horizon = join_windows * join
    temp: dict = {}
    hum: dict = {}
    for g in range(KEYED_GATEWAYS):
        temp[g] = ([], rng.randrange(20, 80) / 1000)
        hum[g] = ([], rng.randrange(20, 80) / 1000)
    for w in range(join_windows):
        base = w * join
        keys = rng.choices(stations, cum_weights=cum,
                           k=per_window * KEYED_GATEWAYS)
        shuffled = stations[:]
        rng.shuffle(shuffled)
        for g in range(KEYED_GATEWAYS):
            t_readings, t_phase = temp[g]
            h_readings, h_phase = hum[g]
            for i in range(per_window):
                j = g * per_window + i
                t_readings.append((
                    base + t_phase + i * period,
                    {"temperature": 10.0 + _eighths(rng, 24),
                     "station": keys[j]},
                ))
                h_readings.append((
                    base + h_phase + i * period,
                    {"humidity": _eighths(rng, 1),
                     "station": shuffled[j]},
                ))
    specs = []
    for g in range(KEYED_GATEWAYS):
        specs.append(SensorSpec(
            f"ktemp-{g:02d}", "temperature",
            (("temperature", "float"), ("station", "string")),
            ("weather/temperature",), len(specs), temp[g][0]))
    for g in range(KEYED_GATEWAYS):
        specs.append(SensorSpec(
            f"khum-{g:02d}", "humidity",
            (("humidity", "float"), ("station", "string")),
            ("weather/humidity",), len(specs), hum[g][0]))
    params = {"window": window, "join": join, "shards": 4}
    return Inputs(workload, seed, "keyed", "sim", batch, specs,
                  math.ceil(horizon / window) * window + 1.0, params)


# -- the named workloads -----------------------------------------------------


def _scaled(base: int, seconds: float, floor: int = 1) -> int:
    return max(floor, round(base * seconds / REFERENCE_SECONDS))


def build(workload: str, seed: int, seconds: float = REFERENCE_SECONDS,
          smoke: bool = False) -> "dict[str, Inputs]":
    """The inputs of one pass of ``workload``, by part.

    Sim workloads have one part, ``main``.  ``async-openloop-b1`` has
    ``free`` (segment 0) and ``paced`` (segments 1-3).
    """
    if workload.startswith("osaka-replay"):
        batch = 1 if workload.endswith("b1") else 32
        if smoke:
            return {"main": osaka_sim(workload, seed, 3, batch, window=32.0)}
        windows = _scaled(8 if batch == 1 else 20, seconds)
        return {"main": osaka_sim(workload, seed, windows, batch)}
    if workload == "keyed-state-b32":
        return {"main": keyed_sim(
            workload, seed, 2 if smoke else _scaled(16, seconds, floor=2),
            batch=32)}
    if workload == "async-openloop-b1":
        scale = seconds / REFERENCE_SECONDS
        if smoke:
            return {
                "free": osaka_freerun(workload, seed, 600),
                "paced": osaka_openloop(workload, seed, 0.1, 0.25),
            }
        return {
            "free": osaka_freerun(workload, seed, round(32000 * scale)),
            "paced": osaka_openloop(workload, seed, 0.15,
                                    max(0.1, 0.6 * scale)),
        }
    raise ValueError(f"unknown workload {workload!r}")


def warmup(inputs: Inputs) -> Inputs:
    """A cheap pass over the same code paths: the shortest horizon that
    still opens the gate, flushes every window kind once, and (for the
    open loop) visits every rate."""
    if inputs.segments:
        return osaka_openloop(inputs.workload, inputs.seed, 0.02, 0.08)
    if inputs.backend == "async" or inputs.params.get("gate_open"):
        return osaka_freerun(inputs.workload, inputs.seed, 1000,
                             inputs.backend)
    if inputs.flow == "keyed":
        return keyed_sim(inputs.workload, inputs.seed, 2, inputs.batch)
    return osaka_sim(inputs.workload, inputs.seed, 2, inputs.batch)


def fingerprint(inputs: Inputs) -> int:
    """Order-sensitive CRC of every offered reading (tests)."""
    crc = 0
    for sensor in inputs.sensors:
        crc = zlib.crc32(sensor.sensor_id.encode(), crc)
        for time, payload in sensor.readings:
            crc = zlib.crc32(repr((time, sorted(payload.items()))).encode(),
                             crc)
    return crc


def segment_of(segments: tuple, time: float) -> "int | None":
    """Index of the segment whose measured part contains ``time``."""
    starts = [s.start for s in segments]
    i = bisect_right(starts, time) - 1
    if i < 0:
        return None
    segment = segments[i]
    if segment.measure_from <= time < segment.end:
        return i
    return None
