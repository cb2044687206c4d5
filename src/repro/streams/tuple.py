"""Stream tuples: an immutable payload plus the STT stamp and provenance.

Also home of the micro-batch envelope: a :class:`TupleBatch` groups
consecutive readings from one source so the broker, network, and operator
layers can amortize their per-message framing costs over many tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence
from types import MappingProxyType

from repro.stt.event import SttStamp

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import TraceContext
    from repro.stt.granularity import SpatialGranularity, TemporalGranularity
    from repro.stt.spatial import SpatialObject
    from repro.stt.thematic import Theme
    from repro.streams.columnar import ColumnarBatch

#: Cached marker for batches that cannot be transposed (heterogeneous
#: payload schemas) so re-deliveries don't retry the conversion.
_NOT_COLUMNAR = object()


@dataclass(frozen=True, slots=True)
class SensorTuple:
    """One reading flowing through a dataflow.

    Attributes:
        payload: attribute name -> value, per the stream's schema.
        stamp: STT stamp (time, location, granularities, themes).
        source: id of the producing sensor (or derived-stream label).
        seq: per-source sequence number, for deterministic ordering.
        trace: observability context (trace id + last span), attached by
            the broker when the tuple's trace is sampled; ``None`` means
            untraced.  Excluded from equality — two readings are the same
            reading whether or not one was sampled.
    """

    payload: Mapping[str, object]
    stamp: SttStamp
    source: str = ""
    seq: int = 0
    trace: "TraceContext | None" = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.payload, MappingProxyType):
            object.__setattr__(self, "payload", MappingProxyType(dict(self.payload)))

    def __getitem__(self, name: str) -> object:
        return self.payload[name]

    def get(self, name: str, default: object = None) -> object:
        return self.payload.get(name, default)

    def __contains__(self, name: object) -> bool:
        return name in self.payload

    @property
    def time(self) -> float:
        return self.stamp.time

    def values(self) -> dict[str, object]:
        """A mutable copy of the payload (for expression evaluation)."""
        return dict(self.payload)

    # The copy-with-changes methods below run per tuple per operator on
    # the data plane; ``dataclasses.replace`` re-enters the generated
    # ``__init__`` and ``__post_init__`` (re-wrapping the payload it just
    # unwrapped), which costs several times a direct slot assembly.
    @staticmethod
    def _clone(
        payload: Mapping[str, object],
        stamp: SttStamp,
        source: str,
        seq: int,
        trace: "TraceContext | None",
    ) -> "SensorTuple":
        clone = _new(SensorTuple)
        _set_payload(clone, payload)
        _set_stamp(clone, stamp)
        _set_source(clone, source)
        _set_seq(clone, seq)
        _set_trace(clone, trace)
        return clone

    def with_owned_payload(self, payload: "dict[str, object]") -> "SensorTuple":
        """This tuple carrying ``payload``, a dict the caller just built and
        transfers ownership of (no defensive copy).  The caller must not
        mutate ``payload`` afterwards."""
        return self._clone(
            MappingProxyType(payload),
            self.stamp, self.source, self.seq, self.trace,
        )

    def with_stamp(self, stamp: SttStamp) -> "SensorTuple":
        return self._clone(self.payload, stamp, self.source, self.seq, self.trace)

    def with_trace(self, trace: "TraceContext | None") -> "SensorTuple":
        return self._clone(self.payload, self.stamp, self.source, self.seq, trace)


# A frozen slotted instance is assembled through its slot descriptors:
# each ``__set__`` stores straight into the slot, past the frozen
# ``__setattr__`` and cheaper than ``object.__setattr__``.
_new = object.__new__
_set_payload, _set_stamp, _set_source, _set_seq, _set_trace = (
    getattr(SensorTuple, f.name).__set__ for f in fields(SensorTuple))
_set_time, _set_location, _set_temporal, _set_spatial, _set_themes = (
    getattr(SttStamp, f.name).__set__ for f in fields(SttStamp))


def assemble(payload: "dict[str, object]", time: float, location: SpatialObject,
             temporal_granularity: TemporalGranularity,
             spatial_granularity: SpatialGranularity,
             themes: "tuple[Theme, ...]", source: str, seq: int) -> SensorTuple:
    """A new untraced tuple and its stamp, from typed fields and a payload
    dict the caller just built and hands over — the one way stamp
    back-fill and the blocking flushes build a reading.

    ``SensorTuple(payload, SttStamp(time, location, ...), source, seq)``
    minus the coercions (granularity names, theme strings) and the
    payload's defensive copy, and equal to it for such inputs.  The
    caller must not mutate ``payload`` afterwards.
    """
    stamp = _new(SttStamp)
    _set_time(stamp, time)
    _set_location(stamp, location)
    _set_temporal(stamp, temporal_granularity)
    _set_spatial(stamp, spatial_granularity)
    _set_themes(stamp, themes)
    return SensorTuple._clone(MappingProxyType(payload), stamp, source, seq, None)


@dataclass(frozen=True, slots=True)
class TupleBatch:
    """A micro-batch of readings travelling the data plane as one message.

    The envelope is deliberately thin: an immutable run of tuples plus the
    producing source's id.  Ordering inside a batch is the emission order,
    so per-source tuple order is preserved whether a stream is delivered
    tuple-by-tuple or in batches (the ``batched ≡ unbatched`` parity
    property).  Batches are routed once, charged to links once, and
    delivered by a single scheduled event — that amortization is the whole
    point (see DESIGN.md §3).
    """

    tuples: tuple[SensorTuple, ...]
    source: str = ""
    # Lazy per-batch caches, excluded from value semantics: the wire-size
    # memo (sized once however many links/routes the batch crosses) and
    # the columnar transposition (built once however many subscribers'
    # fused chains receive this envelope).
    _wire: "int | None" = field(default=None, compare=False, repr=False)
    _cols: object = field(default=None, compare=False, repr=False)
    _span: "tuple[float, float] | None" = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.tuples, tuple):
            object.__setattr__(self, "tuples", tuple(self.tuples))

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[SensorTuple]:
        return iter(self.tuples)

    def __getitem__(self, index: int) -> SensorTuple:
        return self.tuples[index]

    def __bool__(self) -> bool:
        return bool(self.tuples)

    def with_tuples(self, tuples: "Sequence[SensorTuple]") -> "TupleBatch":
        return TupleBatch(tuples=tuple(tuples), source=self.source)

    def with_traced(self, tuples: "Sequence[SensorTuple]") -> "TupleBatch":
        """Like :meth:`with_tuples` for per-tuple clones that all kept
        their payloads (trace attachment): the wire-size memo depends
        only on payloads, so it carries over to the clone."""
        clone = TupleBatch(tuples=tuple(tuples), source=self.source)
        size = self._wire
        if size is not None:
            object.__setattr__(clone, "_wire", size)
        span = self._span
        if span is not None:  # trace attachment keeps every stamp
            object.__setattr__(clone, "_span", span)
        return clone

    def stamp_span(self) -> "tuple[float, float]":
        """``(oldest, newest)`` stamp time across the batch.

        Computed once per envelope: stamps are immutable, but every
        latency probe along the batch's path needs the same extremes
        (watermark advance from the newest, worst stage latency from the
        oldest), and multi-subscriber fan-out re-delivers one envelope.
        """
        span = self._span
        if span is None:
            times = [t.stamp.time for t in self.tuples]
            span = (min(times), max(times))
            object.__setattr__(self, "_span", span)
        return span

    def columnar(self) -> "ColumnarBatch | None":
        """Transpose to struct-of-arrays form, lazily and at most once.

        Returns ``None`` when the batch is heterogeneous (rows disagree
        on payload schema); the negative result is cached too.  Callers
        must :meth:`ColumnarBatch.fork` before installing columns.
        """
        cached = self._cols
        if cached is None:
            from repro.streams.columnar import ColumnarBatch

            cached = ColumnarBatch.from_tuples(self.tuples)
            object.__setattr__(
                self, "_cols", _NOT_COLUMNAR if cached is None else cached
            )
            return cached
        if cached is _NOT_COLUMNAR:
            return None
        return cached  # type: ignore[return-value]

    @classmethod
    def of(cls, tuples: "Sequence[SensorTuple]") -> "TupleBatch":
        """Wrap a run of tuples, labelling the batch with the first
        tuple's source (the common single-source case)."""
        tuples = tuple(tuples)
        return cls(tuples=tuples, source=tuples[0].source if tuples else "")


#: Fixed wire overhead of a batch envelope (count + source + framing).
BATCH_ENVELOPE_BYTES = 24


def _members_size_bytes(tuples: "Sequence[SensorTuple]") -> int:
    """Summed wire size of a run of tuples: the one sizing loop.

    Per tuple a fixed envelope (stamp + provenance) plus a per-attribute
    cost by type.  Every source tuple and every fused-chain output is
    sized, so the exact types sensors produce are settled first — floats
    and ints are 8 bytes, an ASCII string is its length — and the
    ``isinstance`` ladder remains for everything else (non-ASCII text,
    subclasses, nested values).
    """
    size = 48 * len(tuples)  # envelope: stamp, source, seq
    for tuple_ in tuples:
        for name, value in tuple_.payload.items():
            size += len(name)
            kind = type(value)
            if kind is float or kind is int:
                size += 8
            elif kind is str and value.isascii():
                size += len(value)
            elif isinstance(value, str):
                size += len(value.encode("utf-8"))
            elif isinstance(value, bool):
                size += 1
            elif isinstance(value, (int, float)):
                size += 8
            else:
                size += 16
    return size


def estimate_batch_size_bytes(batch: "TupleBatch | Sequence[SensorTuple]") -> int:
    """Approximate wire size of a whole batch.

    One batch envelope plus every member's individual size — batching
    amortizes *framing work* (routing, scheduling, dispatch), not payload
    bytes, so links are still charged for each reading they carry.

    Memoized per batch envelope: the same batch is sized once per route
    it fans out to and once per link it crosses, and payload-preserving
    clones (:meth:`TupleBatch.with_traced`) inherit the memo.
    """
    if isinstance(batch, TupleBatch):
        cached = batch._wire
        if cached is not None:
            return cached
        size = BATCH_ENVELOPE_BYTES + _members_size_bytes(batch.tuples)
        object.__setattr__(batch, "_wire", size)
        return size
    return BATCH_ENVELOPE_BYTES + _members_size_bytes(batch)


# -- data-plane messages ------------------------------------------------------
# A message between broker, network and processes is a bare SensorTuple
# (one unit) or a TupleBatch (``len`` units); the per-message layers handle
# both in one body and ask the helpers below where the kinds differ.


#: Equal and identical to no stamp field: what a loop that resolves
#: something once per run of members sharing a field starts out holding.
UNSEEN = object()


def message_members(payload: "SensorTuple | TupleBatch") -> "tuple[SensorTuple, ...]":
    """The tuples a message carries, in emission order."""
    return payload.tuples if type(payload) is TupleBatch else (payload,)


def message_size_bytes(payload: "SensorTuple | TupleBatch") -> int:
    """Wire size of a message; a batch costs its envelope on top."""
    if type(payload) is TupleBatch:
        return estimate_batch_size_bytes(payload)
    return _members_size_bytes((payload,))


def message_stamp_span(payload: "SensorTuple | TupleBatch") -> "tuple[float, float]":
    """``(oldest, newest)`` stamp time of a message's tuples."""
    if type(payload) is TupleBatch:
        return payload.stamp_span()
    time = payload.stamp.time
    return time, time
