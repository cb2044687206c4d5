"""Execution backends: the simulator oracle and the asyncio runtime.

See :mod:`repro.runtime.backends.base` for the interface,
:mod:`repro.runtime.backends.sim` for the deterministic default and
:mod:`repro.runtime.backends.asyncio_backend` for wall-clock execution.
"""

from __future__ import annotations

from repro.errors import StreamLoaderError
from repro.runtime.backends.asyncio_backend import (
    AsyncBackend,
    AsyncClock,
    AsyncTransport,
    live_backends,
)
from repro.runtime.backends.base import ExecutionBackend
from repro.runtime.backends.sim import SimBackend

#: Backend names the CLI accepts (``--backend``).
BACKEND_NAMES = ("sim", "async")

__all__ = [
    "AsyncBackend",
    "AsyncClock",
    "AsyncTransport",
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SimBackend",
    "backend_from_name",
    "live_backends",
]


def backend_from_name(
    name: str,
    topology=None,
    **kwargs,
) -> ExecutionBackend:
    """Construct a backend by CLI name (``sim`` or ``async``).

    ``kwargs`` (``time_scale``, ``max_wall``, ``mailbox_capacity``) only
    apply to the async backend; the simulator takes none.
    """
    if name == "sim":
        return SimBackend(topology=topology)
    if name == "async":
        return AsyncBackend(topology=topology, **kwargs)
    raise StreamLoaderError(
        f"unknown backend {name!r} (expected one of {', '.join(BACKEND_NAMES)})"
    )
