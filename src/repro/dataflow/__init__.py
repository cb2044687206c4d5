"""Conceptual dataflow model — the canvas behind Figure 2.

The designer's document is the DSN program itself
(:class:`repro.dsn.ast.DsnProgram`, also bound here as ``Dataflow``):
source services bound to published sensors, operator services carrying
the declarative Table 1 specifications of this package, sink services
(warehouse, visualization, collector), data channels and trigger
controls.  The consistency check that guarantees "only dataflows that can
be soundly translated in the DSN/SCN specification" reach deployment
reads it (:mod:`repro.dsn.check`).
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
from repro.dataflow.serialize import dataflow_to_dict, dataflow_from_dict
from repro.dataflow.render import to_dot, render_ascii
from repro.dsn.ast import DsnProgram, SinkKind

#: A second name for the canvas document, bound to the same class.
Dataflow = DsnProgram

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
    "SinkKind",
    "dataflow_to_dict",
    "dataflow_from_dict",
    "to_dot",
    "render_ascii",
]
