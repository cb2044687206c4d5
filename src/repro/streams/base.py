"""Operator base classes and the blocking/non-blocking contract.

The paper distinguishes operators "that are non-blocking (filter, cull-
time/space, transform, virtual property) from those that are blocking
(aggregation, trigger, join).  The former are directly applied on each
tuple when they are processed, whereas the others require the maintenance
of a cache of tuples that are processed every t time intervals."

Operators are *runtime-agnostic*: they expose

- ``on_tuple(t, port)`` -> emitted tuples (non-blocking ops emit here;
  blocking ops buffer and emit nothing);
- ``on_timer(now)``     -> emitted tuples (blocking ops flush here; the
  hosting runtime schedules a timer every ``interval`` seconds);
- ``control``           -> callback receiving :class:`ControlCommand`
  (only triggers use it).

Data errors are quarantined: a tuple that makes a condition or expression
fail is counted in ``stats.errors`` and dropped, never crashing the
operator — emergencies are exactly when malformed sensor data shows up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import CheckpointError, ExpressionError, StreamLoaderError
from repro.streams.tuple import SensorTuple


@dataclass(frozen=True)
class ControlCommand:
    """A trigger's instruction to the control plane.

    ``activate=True`` means "start the streams of sensors {s1..sn}";
    False means stop them (Trigger Off).
    """

    activate: bool
    sensor_ids: tuple[str, ...]
    issued_at: float
    reason: str = ""


@dataclass
class OperatorStats:
    """Per-operator counts, which never go down: a process keeps one
    stats object for life (a restore catches it up, a swap hands it on),
    and the monitor, the rebalancer and the metrics registry read it."""

    tuples_in: int = 0
    tuples_out: int = 0
    errors: int = 0
    timer_firings: int = 0
    controls_issued: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "tuples_in": self.tuples_in,
            "tuples_out": self.tuples_out,
            "errors": self.errors,
            "timer_firings": self.timer_firings,
            "controls_issued": self.controls_issued,
        }


class Operator:
    """Base class of all stream operators."""

    #: Number of input ports (join has 2, everything else 1).
    input_ports: int = 1
    #: Flush interval in seconds for blocking operators; None otherwise.
    interval: "float | None" = None
    #: Relative CPU cost of processing one tuple (placement/load model).
    cost_per_tuple: float = 1.0
    #: Span name recorded when a traced tuple enters this operator
    #: ("evaluate" for per-tuple operators, "enqueue" for blocking ones
    #: that buffer, "sink" for terminal consumers).
    span_name: str = "evaluate"

    def __init__(self, name: str = "") -> None:
        self.name = name or type(self).__name__
        self.stats = OperatorStats()
        #: Trigger control-plane sink; the runtime injects its own.
        self.control: Callable[[ControlCommand], None] = lambda command: None
        #: Lineage recorder (``repro.obs.lineage.LineageStore``); injected
        #: by the executor when observability is enabled.  Blocking
        #: operators record input->output derivations through it.
        self.lineage: "object | None" = None

    @property
    def is_blocking(self) -> bool:
        return self.interval is not None

    @property
    def checkpointable(self) -> bool:
        """Whether the runtime should snapshot this operator periodically.

        Defaults to :attr:`is_blocking` (non-blocking operators hold no
        state across tuples); stateful-but-non-blocking operators (the
        shard merge stage) override this to True.
        """
        return self.is_blocking

    def on_tuple(self, tuple_: SensorTuple, port: int = 0) -> list[SensorTuple]:
        """Feed one tuple into the given input port; returns emissions."""
        if not (0 <= port < self.input_ports):
            raise StreamLoaderError(
                f"{self.name}: invalid port {port} (has {self.input_ports})"
            )
        self.stats.tuples_in += 1
        try:
            out = self._process(tuple_, port)
        except ExpressionError:
            self.stats.errors += 1
            return []
        self.stats.tuples_out += len(out)
        return out

    def on_batch(
        self, tuples: "Sequence[SensorTuple]", port: int = 0
    ) -> list[SensorTuple]:
        """Feed a micro-batch into the given input port; returns emissions.

        Semantically identical to calling :meth:`on_tuple` per member, but
        the port check and stats updates happen once per batch.
        """
        if not (0 <= port < self.input_ports):
            raise StreamLoaderError(
                f"{self.name}: invalid port {port} (has {self.input_ports})"
            )
        self.stats.tuples_in += len(tuples)
        out = self._process_batch(tuples, port)
        self.stats.tuples_out += len(out)
        return out

    def on_timer(self, now: float) -> list[SensorTuple]:
        """Flush hook for blocking operators; no-op for non-blocking ones."""
        if self.interval is None:
            return []
        self.stats.timer_firings += 1
        out = self._flush(now)
        self.stats.tuples_out += len(out)
        return out

    def reset(self) -> None:
        """Clear caches and counters (re-deployment support)."""
        self.stats = OperatorStats()

    # -- checkpointing ----------------------------------------------------

    def checkpoint(self) -> dict:
        """Snapshot of the operator's recoverable state.

        Non-blocking operators hold no state across tuples, so the base
        snapshot carries only the counters; blocking operators extend it
        with their caches.  The snapshot must be self-contained: restoring
        it on a fresh operator instance yields the same future behaviour.
        """
        return {"stats": self.stats.snapshot()}

    def restore(self, state: dict) -> None:
        """Reinstate a :meth:`checkpoint` snapshot, replacing live state.

        Tuples absorbed after the snapshot was taken are discarded — this
        is exactly the at-most-once recovery bound the runtime documents.
        The counts are not state and never rewind: a fresh operator
        resumes from the snapshot's, a live one keeps its own.

        Raises:
            CheckpointError: if ``state`` is not a checkpoint of a
                compatible operator.
        """
        if not isinstance(state, dict) or "stats" not in state:
            raise CheckpointError(
                f"{self.name}: malformed checkpoint {state!r}"
            )
        stats = self.stats
        for name, value in OperatorStats(**state["stats"]).snapshot().items():
            setattr(stats, name, max(value, getattr(stats, name)))

    def describe(self) -> str:
        """One-line summary, shown in the designer and in DSN comments."""
        return self.name

    # -- subclass hooks ---------------------------------------------------

    def _process(self, tuple_: SensorTuple, port: int) -> list[SensorTuple]:
        raise NotImplementedError

    def _process_batch(
        self, tuples: "Sequence[SensorTuple]", port: int
    ) -> list[SensorTuple]:
        """The one row loop: :meth:`_process` per tuple, with the same
        error-quarantine semantics as :meth:`on_tuple` (a failing tuple is
        counted and dropped without poisoning the rest of the batch).

        Override only to handle the message *as a whole* — bulk-extend a
        cache, one callback per batch, column dispatch — never to restate
        ``_process`` inside a ``for``; an operator's fast path for batches
        is a column kernel (``columnar_step``), not a second row loop.
        """
        out: list[SensorTuple] = []
        process = self._process
        errors = 0
        for tuple_ in tuples:
            try:
                out.extend(process(tuple_, port))
            except ExpressionError:
                errors += 1
        if errors:
            self.stats.errors += errors
        return out

    def _flush(self, now: float) -> list[SensorTuple]:
        return []

    def _issue_control(self, command: ControlCommand) -> None:
        self.stats.controls_issued += 1
        self.control(command)


class NonBlockingOperator(Operator):
    """Applied directly on each tuple; never holds state across tuples."""

    interval = None


class BlockingOperator(Operator):
    """Caches tuples and processes them every ``interval`` seconds."""

    span_name = "enqueue"

    def __init__(self, interval: float, name: str = "") -> None:
        super().__init__(name)
        if interval <= 0:
            raise StreamLoaderError(
                f"{self.name}: blocking interval must be positive, got {interval}"
            )
        self.interval = float(interval)
