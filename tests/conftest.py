"""Shared fixtures for the StreamLoader test suite."""

from __future__ import annotations

import signal

import pytest

from repro.network.netsim import NetworkSimulator
from repro.network.topology import Topology
from repro.pubsub.broker import BrokerNetwork
from repro.runtime.backends import live_backends
from repro.runtime.backends.asyncio_backend import take_loop_errors
from repro.scenario import build_stack
from repro.schema.schema import StreamSchema
from repro.sensors.osaka import osaka_fleet
from repro.streams.tuple import SensorTuple, TupleBatch
from repro.stt.event import SttStamp
from repro.stt.spatial import Box, GridCell, Point
from tests.builders import weather_reading


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite golden snapshot files instead of comparing against them",
    )
    parser.addoption(
        "--hard-timeout",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="kill any single test running longer than SECONDS via SIGALRM "
             "(0: disabled).  CI runs the backend suites under this so a "
             "deadlocked event loop fails loudly instead of hanging the job.",
    )


@pytest.fixture(autouse=True)
def _hard_timeout(request):
    """Per-test wall-clock budget, enforced with an interval timer.

    Hand-rolled because the environment has no pytest-timeout plugin;
    SIGALRM only fires on the main thread, which is where pytest runs
    tests — including the asyncio backend, whose event loop blocks the
    main thread in ``run_until_complete``.
    """
    limit = request.config.getoption("--hard-timeout")
    if not limit or limit <= 0:
        yield
        return

    def _expire(signum, frame):
        pytest.fail(f"test exceeded the --hard-timeout budget of {limit}s",
                    pytrace=False)

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def backend_flake_failures() -> "list[str]":
    """Why the current test must fail the flake guard (empty: it passes).

    Closes whatever leaked and drains the loops' error reports, so the
    *next* test starts clean either way.
    """
    failures = []
    leaked = live_backends()
    if leaked:
        for backend in leaked:
            backend.close()
        failures.append(
            f"test leaked {len(leaked)} unclosed AsyncBackend(s); "
            f"close the stack/backend (stack.close() or `with stack:`)"
        )
    for report in take_loop_errors():
        failures.append(f"an event loop swallowed an error: {report}")
    return failures


@pytest.fixture(autouse=True)
def _async_backend_flake_guard():
    """Fail any test that leaks a live AsyncBackend (tasks, event loop) or
    whose event loop swallowed an error.

    Leaked loops are the classic source of cross-test flakes: a pending
    task from test A fires during test B.  A swallowed error is a task
    that died without anyone awaiting it ("Task exception was never
    retrieved"): the run it belonged to wedges or silently loses work.
    """
    yield
    failures = backend_flake_failures()
    if failures:
        pytest.fail("; ".join(failures))


@pytest.fixture
def update_goldens(request) -> bool:
    """Whether golden-file tests should rewrite their snapshots."""
    return request.config.getoption("--update-goldens")


@pytest.fixture
def stack():
    """The Osaka stack in its hot regime (the paper's scenario)."""
    return build_stack(hot=True)


@pytest.fixture
def registry():
    """The Osaka fleet's sensor registry on a two-leaf star."""
    net = BrokerNetwork()
    for sensor in osaka_fleet(Topology.star(leaf_count=2)):
        net.publish(sensor.metadata)
    return net.registry


@pytest.fixture
def weather_schema() -> StreamSchema:
    """The temperature/humidity schema used throughout the unit tests."""
    return StreamSchema.build(
        [
            ("temperature", "float", "celsius"),
            ("humidity", "float", "fraction"),
            ("station", "string"),
        ],
        temporal="second",
        spatial="point",
        themes=("weather/temperature",),
    )


@pytest.fixture
def make_tuple():
    """Factory for weather tuples: make_tuple(i, temperature=..., ...)."""
    return weather_reading


@pytest.fixture
def mixed_stream() -> "list[SensorTuple]":
    """A stream exercising every branch a sink's per-tuple path has.

    Point, Box and GridCell locations; one, several and no themes; bool,
    None, str, int, float and float-subclass payload values; readings with
    and without the ``reading`` attribute, an all-None and an empty
    payload; and one moving sensor that reports 10^4 distinct locations.
    """
    import numpy as np

    locations = [
        Point(34.69, 135.50),
        Point(90.0, 180.0),
        Point(-90.0, -180.0),
        Box(south=34.5, west=135.2, north=34.9, east=135.8),
        GridCell("city", 693, 1756),
    ]
    theme_sets = [("weather/rain",), ("weather/rain", "disaster/flood"), (),
                  ("social/twitter",)]
    payloads = [
        {"reading": 2.5, "station": "umeda", "ok": True},
        {"reading": 3, "note": None, "station": "namba"},
        {"reading": np.float64(1.25), "retweets": 7},
        {"reading": True, "level": 0.5},
        {"reading": "n/a", "level": 4},
        {"reading": None, "station": "tenma"},
        {"text": "heavy rain", "user": "u1"},
        {"only": None},
        {},
    ]
    granularities = [("second", "point"), ("hour", "city"), ("month", "district")]
    stream = []
    for i in range(len(locations) * len(theme_sets) * len(payloads)):
        temporal, spatial = granularities[i % len(granularities)]
        stream.append(SensorTuple(
            payload=payloads[i % len(payloads)],
            stamp=SttStamp(
                time=i * 977.0,
                location=locations[i % len(locations)],
                temporal_granularity=temporal,
                spatial_granularity=spatial,
                themes=theme_sets[i % len(theme_sets)],
            ),
            source=f"sensor-{i % 7}" if i % 11 else "",
            seq=i,
        ))
    for i in range(10_000):
        stream.append(SensorTuple(
            payload={"reading": i * 0.125, "station": "bus-12"},
            stamp=SttStamp(
                time=500_000.0 + i,
                location=Point(34.0 + i * 1e-4, 135.0 + i * 2e-4),
                themes=("mobility/traffic",),
            ),
            source="bus-12",
            seq=i,
        ))
    return stream


@pytest.fixture
def feedings():
    """``feedings(stream)``: the same stream cut into messages four ways
    — lone tuples, TupleBatches of 7 and of 32, and one batch."""

    def cut(stream: "list[SensorTuple]") -> "dict[str, list]":
        out: "dict[str, list]" = {"lone": list(stream)}
        for width in (7, 32, len(stream)):
            out[f"batches-of-{width}"] = [
                TupleBatch.of(stream[first:first + width])
                for first in range(0, len(stream), width)
            ]
        return out

    return cut


@pytest.fixture
def star_netsim() -> NetworkSimulator:
    """A 3-leaf star network simulator."""
    return NetworkSimulator(topology=Topology.star(leaf_count=3))


@pytest.fixture
def broker_net(star_netsim) -> BrokerNetwork:
    """A broker network over the star simulator."""
    return BrokerNetwork(netsim=star_netsim)


@pytest.fixture
def local_broker_net() -> BrokerNetwork:
    """An in-process broker network (immediate delivery, no simulator)."""
    return BrokerNetwork()
