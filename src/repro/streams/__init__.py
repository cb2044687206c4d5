"""Runtime stream-processing algebra — Table 1 of the paper.

Nine operations over STT-stamped tuple streams:

=================  =======================================  =========
Operation          Table 1 syntax                           Kind
=================  =======================================  =========
Aggregation        ``@t,{a1..an} op (s)``                   blocking
Cull Time          ``γr(s, <t1,t2>)``                       non-blocking
Cull Space         ``γr(s, <coord1,coord2>)``               non-blocking
Filter             ``σ(s, cond)``                           non-blocking
Join               ``s1 ⋈t pred s2``                        blocking
Transform          ``▷trans s``                             non-blocking
Trigger On         ``⊕ON,t(s, {s1..sn}, cond)``             blocking
Trigger Off        ``⊕OFF,t(s, {s1..sn}, cond)``            blocking
Virtual property   ``⊎ s⟨p, spec⟩``                         non-blocking
=================  =======================================  =========

Non-blocking operators transform each tuple as it arrives; blocking
operators "require the maintenance of a cache of tuples that are processed
every t time intervals".  Operators are runtime-agnostic: they expose
``on_tuple`` / ``on_timer`` and are driven either directly (unit tests,
baselines) or by operator processes placed on network nodes (the executor).
"""

from repro.streams.tuple import (
    SensorTuple,
    TupleBatch,
    estimate_batch_size_bytes,
)
from repro.streams.base import (
    Operator,
    NonBlockingOperator,
    BlockingOperator,
    ControlCommand,
    OperatorStats,
)
from repro.streams.filter import FilterOperator
from repro.streams.transform import TransformOperator, ValidateOperator
from repro.streams.virtual import VirtualPropertyOperator
from repro.streams.cull import CullTimeOperator, CullSpaceOperator
from repro.streams.aggregate import AggregationOperator
from repro.streams.join import JoinOperator
from repro.streams.trigger import TriggerOnOperator, TriggerOffOperator
from repro.streams.windows import TupleCache
from repro.streams.sink import ListSink, CallbackSink

__all__ = [
    "SensorTuple",
    "TupleBatch",
    "estimate_batch_size_bytes",
    "Operator",
    "NonBlockingOperator",
    "BlockingOperator",
    "ControlCommand",
    "OperatorStats",
    "FilterOperator",
    "TransformOperator",
    "ValidateOperator",
    "VirtualPropertyOperator",
    "CullTimeOperator",
    "CullSpaceOperator",
    "AggregationOperator",
    "JoinOperator",
    "TriggerOnOperator",
    "TriggerOffOperator",
    "TupleCache",
    "ListSink",
    "CallbackSink",
]
