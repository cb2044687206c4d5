"""Conceptual dataflow model — the canvas behind Figure 2.

A :class:`Dataflow` is the designer's document: source nodes bound to
published sensors, operator nodes carrying declarative Table 1
specifications, sink nodes (warehouse, visualization, collector), data
edges and trigger control edges.  The consistency check that guarantees
"only dataflows that can be soundly translated in the DSN/SCN
specification" reach deployment runs on the lowered program
(:mod:`repro.dsn.check`).
"""

from repro.dataflow.ops import (
    OperatorSpec,
    FilterSpec,
    TransformSpec,
    ValidateSpec,
    VirtualPropertySpec,
    CullTimeSpec,
    CullSpaceSpec,
    AggregationSpec,
    JoinSpec,
    TriggerOnSpec,
    TriggerOffSpec,
    spec_from_dict,
)
from repro.dataflow.graph import (
    Dataflow,
    SourceNode,
    OperatorNode,
    SinkNode,
    SinkKind,
)
from repro.dataflow.serialize import dataflow_to_dict, dataflow_from_dict
from repro.dataflow.render import to_dot, render_ascii

__all__ = [
    "OperatorSpec",
    "FilterSpec",
    "TransformSpec",
    "ValidateSpec",
    "VirtualPropertySpec",
    "CullTimeSpec",
    "CullSpaceSpec",
    "AggregationSpec",
    "JoinSpec",
    "TriggerOnSpec",
    "TriggerOffSpec",
    "spec_from_dict",
    "Dataflow",
    "SourceNode",
    "OperatorNode",
    "SinkNode",
    "SinkKind",
    "dataflow_to_dict",
    "dataflow_from_dict",
    "to_dot",
    "render_ascii",
]
