"""Units of measure and conversions.

The paper's Transform operator family includes operations "for changing the
unit of measure (e.g. from yards to meters)".  This module implements a
small dimensional unit registry: every unit belongs to a *dimension*
(length, temperature, speed, ...) and converts to the dimension's base unit
via an affine map ``base = scale * value + offset`` (offset is only nonzero
for temperatures).  Conversions between units of different dimensions raise
:class:`repro.errors.UnitError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UnitError


@dataclass(frozen=True)
class Unit:
    """A unit of measure.

    Attributes:
        name: canonical name, e.g. ``"meter"``.
        dimension: physical dimension, e.g. ``"length"``.
        scale: multiplicative factor to the dimension's base unit.
        offset: additive offset to the base unit (``base = scale*v + offset``).
    """

    name: str
    dimension: str
    scale: float
    offset: float = 0.0

    def to_base(self, value: float) -> float:
        return self.scale * value + self.offset

    def from_base(self, value: float) -> float:
        return (value - self.offset) / self.scale


class UnitRegistry:
    """Registry of units with alias resolution and conversion.

    >>> reg = UnitRegistry.standard()
    >>> round(reg.convert(100.0, "yard", "meter"), 2)
    91.44
    """

    def __init__(self) -> None:
        self._units: dict[str, Unit] = {}
        self._aliases: dict[str, str] = {}

    def register(self, unit: Unit, aliases: "list[str] | None" = None) -> Unit:
        key = unit.name.lower()
        if key in self._units:
            raise UnitError(f"unit {unit.name!r} already registered")
        self._units[key] = unit
        for alias in aliases or []:
            alias_key = alias.lower()
            if alias_key in self._aliases or alias_key in self._units:
                raise UnitError(f"unit alias {alias!r} already registered")
            self._aliases[alias_key] = key
        return unit

    def resolve(self, name: "str | Unit") -> Unit:
        if isinstance(name, Unit):
            return name
        key = name.strip().lower()
        key = self._aliases.get(key, key)
        try:
            return self._units[key]
        except KeyError:
            raise UnitError(f"unknown unit {name!r}") from None

    def convert(self, value: float, source: "str | Unit", target: "str | Unit") -> float:
        """Convert ``value`` from ``source`` to ``target`` units."""
        src = self.resolve(source)
        dst = self.resolve(target)
        if src.dimension != dst.dimension:
            raise UnitError(
                f"cannot convert {src.name} ({src.dimension}) to "
                f"{dst.name} ({dst.dimension})"
            )
        return dst.from_base(src.to_base(value))

    @classmethod
    def standard(cls) -> "UnitRegistry":
        """Registry with the units the paper's sensor types need."""
        reg = cls()
        # Length (base: meter).
        reg.register(Unit("meter", "length", 1.0), ["m", "meters", "metre", "metres"])
        reg.register(Unit("kilometer", "length", 1000.0), ["km", "kilometers"])
        reg.register(Unit("centimeter", "length", 0.01), ["cm", "centimeters"])
        reg.register(Unit("millimeter", "length", 0.001), ["mm", "millimeters"])
        reg.register(Unit("yard", "length", 0.9144), ["yd", "yards"])
        reg.register(Unit("foot", "length", 0.3048), ["ft", "feet"])
        reg.register(Unit("mile", "length", 1609.344), ["mi", "miles"])
        # Temperature (base: kelvin).
        reg.register(Unit("kelvin", "temperature", 1.0), ["k"])
        reg.register(
            Unit("celsius", "temperature", 1.0, 273.15), ["c", "degc", "°c"]
        )
        reg.register(
            Unit("fahrenheit", "temperature", 5.0 / 9.0, 273.15 - 32.0 * 5.0 / 9.0),
            ["f", "degf", "°f"],
        )
        # Speed (base: meter/second).
        reg.register(Unit("mps", "speed", 1.0), ["m/s", "meters-per-second"])
        reg.register(Unit("kmh", "speed", 1000.0 / 3600.0), ["km/h", "kph"])
        reg.register(Unit("mph", "speed", 1609.344 / 3600.0), ["miles-per-hour"])
        reg.register(Unit("knot", "speed", 1852.0 / 3600.0), ["kn", "knots"])
        # Pressure (base: pascal).
        reg.register(Unit("pascal", "pressure", 1.0), ["pa"])
        reg.register(Unit("hectopascal", "pressure", 100.0), ["hpa", "millibar", "mbar"])
        reg.register(Unit("atmosphere", "pressure", 101325.0), ["atm"])
        # Precipitation rate (base: millimeter/hour).
        reg.register(Unit("mmh", "precipitation", 1.0), ["mm/h"])
        reg.register(Unit("inh", "precipitation", 25.4), ["in/h", "inches-per-hour"])
        # Ratio (base: fraction 0..1).
        reg.register(Unit("fraction", "ratio", 1.0), [])
        reg.register(Unit("percent", "ratio", 0.01), ["%", "pct"])
        # Duration (base: second) — for schedule delays.
        reg.register(Unit("second", "duration", 1.0), ["s", "sec", "seconds"])
        reg.register(Unit("minute", "duration", 60.0), ["min", "minutes"])
        reg.register(Unit("hour", "duration", 3600.0), ["h", "hours"])
        # Count (dimensionless).
        reg.register(Unit("count", "count", 1.0), ["items", "tuples"])
        return reg


#: Shared default registry (module-level convenience).
DEFAULT_UNITS = UnitRegistry.standard()


def convert(value: float, source: "str | Unit", target: "str | Unit") -> float:
    """Convert using the default registry."""
    return DEFAULT_UNITS.convert(value, source, target)
