"""The execution-backend interface: what a deployed plan actually runs on.

The DSN/SCN layers decide *what* runs *where*; a backend decides *how*:
which clock fires the timers, which substrate carries the messages, and
what hosts an :class:`~repro.runtime.process.OperatorProcess`.  Keeping
that behind one small interface lets the executor deploy the same plan
onto the deterministic simulator (the test oracle) or onto a real
wall-clock asyncio runtime without either knowing about the other.

A backend exposes:

- ``clock`` — the timer service (``schedule`` / ``schedule_at`` /
  ``schedule_periodic`` / ``now``, the :class:`~repro.network.simclock
  .SimClock` protocol).  Everything in the runtime — sensor emissions,
  window flushes, heartbeats, checkpoints, retry backoff — runs off it.
- ``transport`` — the :class:`~repro.network.netsim.NetworkSimulator`
  protocol (``send`` — one entry point for a message of 1..n tuples —
  ``topology`` / ``stats`` / ``kill_node`` / ``total_link_bytes`` ...).
  Processes, the broker and the monitor talk only to this surface.
- ``host_process`` — claim execution of an operator process (a no-op on
  the simulator, an asyncio task + bounded mailbox on the async backend).
- ``run_until`` / ``close`` — drive virtual time forward and release any
  real resources (tasks, event loops) the backend holds.
"""

from __future__ import annotations


class ExecutionBackend:
    """Base class for execution backends (see the module docstring).

    Subclasses set :attr:`name` and the ``clock`` / ``transport`` /
    ``topology`` attributes in their constructor.
    """

    #: Short identifier surfaced by the CLI and the monitor ("sim", "async").
    name = "?"

    def run_until(self, time: float, max_events: int = 10_000_000) -> int:
        """Advance virtual time to ``time``; returns events executed."""
        raise NotImplementedError

    def host_process(self, process) -> None:
        """Claim execution of an operator process.

        Called by the executor once per spawned process after ``start()``.
        The simulator executes processes inline, so its implementation is
        a no-op; the async backend gives each process a task + mailbox.
        """

    def kill_node(self, node_id: str) -> None:
        """Fault-injection: fail a node (and whatever hosts its processes)."""
        self.transport.kill_node(node_id)

    def revive_node(self, node_id: str) -> None:
        """Fault-injection: recover a failed node."""
        self.transport.revive_node(node_id)

    def close(self) -> None:
        """Release real resources (tasks, loops).  Idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
