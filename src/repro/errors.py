"""Exception hierarchy for the StreamLoader reproduction.

Every error raised by the library derives from :class:`StreamLoaderError`,
so callers can catch one type at the API boundary.  Sub-hierarchies follow
the architecture layers (data model, expression language, dataflow design,
DSN/SCN translation, network simulation, runtime execution).
"""

from __future__ import annotations


class StreamLoaderError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# STT data model


class SttError(StreamLoaderError):
    """Errors in the space-time-thematic data model."""


class GranularityError(SttError):
    """Unknown granularity, or a conversion between incomparable granules."""


class UnitError(SttError):
    """Unknown unit of measure, or a conversion between incompatible units."""


class CoordinateError(SttError):
    """Invalid coordinates or an unsupported reference-system conversion."""


# ---------------------------------------------------------------------------
# Schemas and types


class SchemaError(StreamLoaderError):
    """Invalid schema definition or an illegal schema operation."""


class TypeMismatchError(SchemaError):
    """An attribute value (or expression) does not fit the declared type."""


# ---------------------------------------------------------------------------
# Expression language


class ExpressionError(StreamLoaderError):
    """Base for errors in the condition/specification language."""


class LexError(ExpressionError):
    """Invalid character sequence while tokenizing an expression."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ParseError(ExpressionError):
    """Invalid syntax while parsing an expression."""

    def __init__(self, message: str, position: int = -1) -> None:
        suffix = f" (at position {position})" if position >= 0 else ""
        super().__init__(f"{message}{suffix}")
        self.position = position


class EvaluationError(ExpressionError):
    """An expression failed to evaluate against a tuple."""


class UnknownFunctionError(ExpressionError):
    """A call to a function that is not in the registry."""


class UnknownAttributeError(ExpressionError):
    """An expression referenced an attribute absent from the schema/tuple."""


# ---------------------------------------------------------------------------
# Conceptual dataflow design


class DataflowError(StreamLoaderError):
    """Invalid conceptual dataflow structure or configuration."""


class ValidationError(DataflowError):
    """A program failed the consistency check (:func:`repro.dsn.check.check`).

    Carries its :class:`~repro.dsn.check.ValidationIssue` list, anchored to
    service names, so a designer front end can annotate the canvas.
    """

    def __init__(self, issues) -> None:
        self.issues = list(issues)
        lines = "; ".join(str(issue) for issue in self.issues)
        super().__init__(f"dataflow is not consistent: {lines}")


class PortError(DataflowError):
    """Illegal connection between operator ports."""


# ---------------------------------------------------------------------------
# DSN / SCN


class DsnError(StreamLoaderError):
    """Errors in the declarative service networking layer."""


class DsnParseError(DsnError):
    """Invalid DSN program text."""

    def __init__(self, message: str, line: int = -1) -> None:
        suffix = f" (line {line})" if line >= 0 else ""
        super().__init__(f"{message}{suffix}")
        self.line = line


class ScnError(DsnError):
    """The SCN controller could not actuate a DSN program on the network."""


class PlacementError(ScnError):
    """No feasible node assignment exists for a service."""


# ---------------------------------------------------------------------------
# Network simulation


class NetworkError(StreamLoaderError):
    """Errors in the simulated programmable network."""


class UnknownNodeError(NetworkError):
    """Reference to a node id that is not part of the topology."""


class UnreachableError(NetworkError):
    """No route exists between two nodes."""


class SimulationError(NetworkError):
    """Inconsistent use of the discrete-event simulator."""


# ---------------------------------------------------------------------------
# Pub/sub


class PubSubError(StreamLoaderError):
    """Errors in the distributed publish-subscribe layer."""


class UnknownSensorError(PubSubError):
    """Reference to a sensor id that is not registered."""


class DuplicateSensorError(PubSubError):
    """A sensor id was published twice."""


# ---------------------------------------------------------------------------
# Runtime


class RuntimeExecutionError(StreamLoaderError):
    """Errors while executing a deployed dataflow."""


class DeploymentError(RuntimeExecutionError):
    """The executor could not deploy (or re-deploy) a dataflow."""


class LifecycleError(RuntimeExecutionError):
    """Illegal lifecycle transition (e.g. modifying a torn-down flow)."""


class CheckpointError(RuntimeExecutionError):
    """A state snapshot could not be taken or restored."""


# ---------------------------------------------------------------------------
# Warehouse


class WarehouseError(StreamLoaderError):
    """Errors in the event data warehouse."""
