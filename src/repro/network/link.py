"""Network links: latency, bandwidth, and traffic accounting.

Links are directed when used for delivery but registered symmetrically in
the topology.  Per-link byte counters feed the ablation benchmark comparing
in-network placement against centralized collection (total bytes moved).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import NetworkError

#: Link attributes that change which routes are valid/cheapest.
_ROUTING_ATTRS = frozenset({"up", "latency", "bandwidth"})


@dataclass
class Link:
    """A link between two nodes.

    Attributes:
        a, b: endpoint node ids.
        latency: one-way propagation delay in seconds.
        bandwidth: capacity in bytes/second.
        up: whether the link is usable (failure injection sets False).
    """

    a: str
    b: str
    latency: float = 0.001
    bandwidth: float = 10_000_000.0
    up: bool = True
    bytes_transferred: float = 0.0
    messages_transferred: int = 0
    #: Topology hook, set by ``Topology.add_link``: called when liveness
    #: or weights change so cached routes are invalidated.
    _on_routing_change: "Callable[[], None] | None" = field(
        default=None, repr=False, compare=False
    )

    def __setattr__(self, name: str, value: object) -> None:
        # Traffic counters are written per message; keep the non-routing
        # path to a frozenset probe plus a plain attribute store.
        if name in _ROUTING_ATTRS:
            state = self.__dict__
            hook = state.get("_on_routing_change")
            if hook is not None and state.get(name) != value:
                object.__setattr__(self, name, value)
                hook()
                return
        object.__setattr__(self, name, value)

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise NetworkError(f"link endpoints must differ: {self.a!r}")
        if self.latency < 0:
            raise NetworkError(f"link latency must be non-negative: {self.latency}")
        if self.bandwidth <= 0:
            raise NetworkError(f"link bandwidth must be positive: {self.bandwidth}")

    @property
    def key(self) -> tuple[str, str]:
        """Canonical (sorted) endpoint pair identifying the link."""
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)

    def fail(self) -> None:
        self.up = False

    def recover(self) -> None:
        self.up = True
