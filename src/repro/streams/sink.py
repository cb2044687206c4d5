"""Terminal consumers for streams: collection, callbacks, counting.

Sinks share the operator interface so the executor can place them on nodes
like any other dataflow element; they simply never emit.
"""

from __future__ import annotations

from typing import Callable

from repro.streams.base import NonBlockingOperator
from repro.streams.tuple import SensorTuple, TupleBatch


class ListSink(NonBlockingOperator):
    """Collect every received tuple into ``received`` (tests, samples)."""

    cost_per_tuple = 0.2
    span_name = "sink"

    def __init__(self, name: str = "") -> None:
        super().__init__(name or "list-sink")
        self.received: list[SensorTuple] = []

    def _process(self, tuple_: SensorTuple, port: int) -> list[SensorTuple]:
        self.received.append(tuple_)
        return []

    def _process_batch(self, tuples, port: int) -> list[SensorTuple]:
        self.received.extend(tuples)
        return []

    def reset(self) -> None:
        super().reset()
        self.received = []


class CallbackSink(NonBlockingOperator):
    """Hand every message to a callback (warehouse loader, Sticker feed).

    ``batch_callback``, when given, receives a micro-batch whole as a
    :class:`TupleBatch` (one call per message); without it a batch is
    unrolled through ``callback`` in order, like
    :class:`~repro.pubsub.subscription.Subscription` does.
    """

    cost_per_tuple = 0.5
    span_name = "sink"

    def __init__(
        self,
        callback: Callable[[SensorTuple], None],
        name: str = "",
        batch_callback: "Callable[[TupleBatch], None] | None" = None,
    ) -> None:
        super().__init__(name or "callback-sink")
        self.callback = callback
        self.batch_callback = batch_callback

    def _process(self, tuple_: SensorTuple, port: int) -> list[SensorTuple]:
        self.callback(tuple_)
        return []

    def _process_batch(self, tuples, port: int) -> list[SensorTuple]:
        if self.batch_callback is not None:
            self.batch_callback(
                tuples if type(tuples) is TupleBatch else TupleBatch.of(tuples)
            )
        else:
            callback = self.callback
            for tuple_ in tuples:
                callback(tuple_)
        return []


class CountingSink(NonBlockingOperator):
    """Count tuples without retaining them (throughput benchmarks)."""

    cost_per_tuple = 0.1
    span_name = "sink"

    def __init__(self, name: str = "") -> None:
        super().__init__(name or "counting-sink")
        self.count = 0

    def _process(self, tuple_: SensorTuple, port: int) -> list[SensorTuple]:
        self.count += 1
        return []

    def _process_batch(self, tuples, port: int) -> list[SensorTuple]:
        self.count += len(tuples)
        return []

    def reset(self) -> None:
        super().reset()
        self.count = 0
