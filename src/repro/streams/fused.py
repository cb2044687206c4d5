"""Fused operator chains: many non-blocking operators, one call stack.

The executor normally hosts every DSN operator in its own process, so a
tuple crossing a chain of per-tuple operators pays broker publish →
netsim transmit → dispatch for *every* hop.  A :class:`FusedOperator`
collapses one planned chain (see :mod:`repro.dataflow.fusion`) into a
single operator: a tuple entering the chain head traverses every member
in one Python call stack, with zero intermediate publish/transmit/
deliver.

Member semantics are preserved exactly:

- each member keeps its own :class:`~repro.streams.base.OperatorStats`
  (the chain drives the members' row kernels, ``_process``, already
  bound to their prepared compiled expressions, and does the
  ``on_tuple`` bookkeeping itself), so per-operator counts match an
  unfused run;
- error quarantine stays per member — a tuple that fails inside member
  *k* is counted in member *k*'s ``stats.errors`` and dropped there,
  never reaching member *k+1*;
- the metrics registry reads each member's ``stats.tuples_in`` as
  ``process_tuples_total`` under the *member* process label (the
  executor registers the readings), so the metrics output is
  indistinguishable from an unfused run even though only one process
  exists.

A chain has two kernels and picks between them per message from what it
observes, never from a switch.  The row kernel (``_process``: one tuple
through every member, tuple-major) is the reference semantics; a batch
that cannot go columnar is the base class's loop over it.  When every
member exposes a column kernel (``columnar_step``), a batch of at least
``MIN_COLUMNAR_ROWS`` uniform-schema rows takes the columnar pipeline
instead: the batch is transposed once (cached on the envelope), each
member narrows a selection vector over shared columns, and the chain
emits a :class:`~repro.streams.columnar.LazyRows` view — rows
re-materialize to :class:`SensorTuple` only when a consumer reads them
(the hosting process forwarding to blocking/sink/sharded routes), never
between members and never for output nobody consumes.  Per-member
stats and error quarantine are those of the row kernel,
which the operator-level kernel oracle and the deployed flow oracle
pin.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import CheckpointError, ExpressionError, StreamLoaderError
from repro.streams.base import NonBlockingOperator, Operator
from repro.streams.columnar import MIN_COLUMNAR_ROWS, ColumnarBatch, LazyRows
from repro.streams.tuple import SensorTuple, TupleBatch

#: Separator used for fused process/operator names (``a+b+c``).
FUSED_NAME_SEPARATOR = "+"


class FusedOperator(NonBlockingOperator):
    """A linear chain of non-blocking operators run as one operator.

    >>> fused = FusedOperator([FilterOperator(cond), TransformOperator(t)])
    ... # doctest: +SKIP

    The wrapper's own stats count the chain as a whole (tuples entering
    the head, tuples leaving the tail) — that is what the hosting
    process's load estimator reads; the members' stats keep the per-hop
    truth.
    """

    def __init__(self, members: "Sequence[Operator]", name: str = "") -> None:
        if len(members) < 2:
            raise StreamLoaderError(
                f"a fused chain needs at least 2 members, got {len(members)}"
            )
        for member in members:
            if member.is_blocking:
                raise StreamLoaderError(
                    f"cannot fuse blocking operator {member.name!r}"
                )
            if member.input_ports != 1:
                raise StreamLoaderError(
                    f"cannot fuse multi-input operator {member.name!r}"
                )
        super().__init__(
            name or FUSED_NAME_SEPARATOR.join(m.name for m in members)
        )
        self.members: "list[Operator]" = list(members)
        #: The whole chain's work is charged to the hosting node in one
        #: ``account_work`` call, so the fused cost is the members' sum.
        self.cost_per_tuple = sum(m.cost_per_tuple for m in self.members)
        self._columnar_steps = [
            getattr(m, "columnar_step", None) for m in self.members
        ]
        self._columnar_capable = all(
            step is not None for step in self._columnar_steps
        )

    # -- data path ---------------------------------------------------------

    def _process(self, tuple_: SensorTuple, port: int) -> "list[SensorTuple]":
        # Members are driven through ``_process`` directly rather than
        # ``on_tuple``: the chain owns the dispatch, so the per-call port
        # check and call frame are exactly the per-hop overhead fusion
        # exists to remove.  The ``on_tuple`` bookkeeping is reproduced
        # inline — per-member tuples_in/out counts and per-member error
        # quarantine stay identical to an unfused run.
        out = [tuple_]
        for member in self.members:
            count = len(out)
            stats = member.stats
            stats.tuples_in += count
            if count == 1:
                try:
                    emitted = member._process(out[0], 0)
                except ExpressionError:
                    stats.errors += 1
                    return []
            else:  # a member emitted several tuples; feed them in order,
                emitted = []  # quarantining failures one by one
                extend = emitted.extend
                errors = 0
                for member_tuple in out:
                    try:
                        extend(member._process(member_tuple, 0))
                    except ExpressionError:
                        errors += 1
                if errors:
                    stats.errors += errors
            stats.tuples_out += len(emitted)
            if not emitted:
                return []
            out = emitted
        return out

    def _process_batch(
        self, tuples: "Sequence[SensorTuple]", port: int
    ) -> "Sequence[SensorTuple]":
        if self._columnar_capable and len(tuples) >= MIN_COLUMNAR_ROWS:
            # The transposition is cached on the batch envelope, so other
            # subscribers' chains receiving the same batch reuse it; the
            # fork keeps this pipeline's column installs private.
            col = (
                tuples.columnar()
                if isinstance(tuples, TupleBatch)
                else ColumnarBatch.from_tuples(tuples)
            )
            if col is not None:
                return self._process_columnar(col.fork())
        # Too short, heterogeneous schema, or a member without a column
        # kernel: the row kernel, one tuple at a time.
        return super()._process_batch(tuples, port)

    def _process_columnar(self, col: ColumnarBatch) -> "Sequence[SensorTuple]":
        # Member-major where ``_process`` is tuple-major, with the same
        # per-member totals: tuples_in before the step, errors and
        # tuples_out after, early exit on an empty selection.
        sel: "Sequence[int]" = range(col.count)
        for member, step in zip(self.members, self._columnar_steps):
            stats = member.stats
            stats.tuples_in += len(sel)
            sel, errors = step(col, sel)
            if errors:
                stats.errors += errors
            stats.tuples_out += len(sel)
            if not sel:
                return []
        # The emissions stay columnar until something row-oriented reads
        # them: forwarding to routes materializes (building the outgoing
        # batch), while a tail with no consumers never builds rows at all.
        return LazyRows(col, sel)

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        super().reset()
        for member in self.members:
            member.reset()

    def checkpoint(self) -> dict:
        state = super().checkpoint()
        state["members"] = [member.checkpoint() for member in self.members]
        return state

    def restore(self, state: dict) -> None:
        super().restore(state)
        member_states = state.get("members")
        if (
            not isinstance(member_states, list)
            or len(member_states) != len(self.members)
        ):
            raise CheckpointError(
                f"{self.name}: checkpoint does not match the fused chain "
                f"({len(self.members)} members)"
            )
        for member, member_state in zip(self.members, member_states):
            member.restore(member_state)

    def describe(self) -> str:
        inner = " -> ".join(member.describe() for member in self.members)
        return f"fused({inner})"
