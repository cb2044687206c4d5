"""Declarative Service Networking (DSN) and Service-Controlled Networking.

The paper builds on [Dong, Kimata, Zettsu 2014]: *"DSN provides a method to
model and describe a high-level network of information services for an
application, which includes service discovery, service monitoring,
execution control, and service message exchanges.  SCN aims at capturing
application requirements and requesting appropriate configuration to the
network platform ... interprets the DSN description and dynamically
coordinates the network configurations, such as data flows, segmentations,
and QoS parameters."*

Here DSN is a textual program lowered from a conceptual dataflow
(:mod:`generate`), parsed back into a program model (:mod:`parse`,
round-trip tested), held to the consistency rules by one check
(:mod:`check`), and interpreted by the :class:`repro.dsn.scn.ScnController`,
which performs service discovery against the pub-sub registry, workload-
aware placement onto the simulated network, QoS admission, and live
migration when nodes overload.
"""

from repro.dsn.ast import DsnProgram, DsnService, DsnChannel, DsnControl, ServiceRole
from repro.dsn.generate import dataflow_to_dsn, dsn_to_dataflow
from repro.dsn.parse import parse_dsn
from repro.dsn.scn import ScnController, PlacementDecision, Migration
from repro.dsn.check import ValidationIssue, ValidationReport, check

__all__ = [
    "DsnProgram",
    "DsnService",
    "DsnChannel",
    "DsnControl",
    "ServiceRole",
    "dataflow_to_dsn",
    "dsn_to_dataflow",
    "parse_dsn",
    "check",
    "ValidationIssue",
    "ValidationReport",
    "ScnController",
    "PlacementDecision",
    "Migration",
]
