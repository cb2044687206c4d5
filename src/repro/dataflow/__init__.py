"""Conceptual dataflow model — the canvas behind Figure 2.

A :class:`Dataflow` is the designer's document: source nodes bound to
published sensors, operator nodes carrying declarative Table 1
specifications, sink nodes (warehouse, visualization, collector), data
edges and trigger control edges.  The validator propagates schemas and
runs the consistency checks that guarantee "only dataflows that can be
soundly translated in the DSN/SCN specification" reach deployment.
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
from repro.dataflow.validate import (
    ValidationIssue,
    ValidationReport,
    validate_dataflow,
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
    "ValidationIssue",
    "ValidationReport",
    "validate_dataflow",
    "dataflow_to_dict",
    "dataflow_from_dict",
    "to_dot",
    "render_ascii",
]
