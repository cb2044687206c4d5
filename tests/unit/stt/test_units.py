"""Unit tests for the unit-of-measure registry."""

import pytest

from repro.errors import UnitError
from repro.stt.units import DEFAULT_UNITS, Unit, UnitRegistry, convert


class TestConversions:
    def test_yards_to_meters_paper_example(self):
        # The paper's own example: "from yards to meters".
        assert convert(100.0, "yard", "meter") == pytest.approx(91.44)

    def test_identity(self):
        assert convert(42.0, "meter", "meter") == 42.0

    @pytest.mark.parametrize(
        "value,src,dst,expected",
        [
            (1.0, "km", "meter", 1000.0),
            (1.0, "mile", "km", 1.609344),
            (0.0, "celsius", "kelvin", 273.15),
            (100.0, "celsius", "fahrenheit", 212.0),
            (32.0, "fahrenheit", "celsius", 0.0),
            (36.0, "km/h", "m/s", 10.0),
            (1.0, "atm", "hpa", 1013.25),
            (50.0, "percent", "fraction", 0.5),
            (2.0, "hour", "second", 7200.0),
        ],
    )
    def test_known_conversions(self, value, src, dst, expected):
        assert convert(value, src, dst) == pytest.approx(expected)

    def test_round_trip(self):
        for src, dst in [("yard", "meter"), ("celsius", "fahrenheit"),
                         ("kmh", "mph"), ("hpa", "atm")]:
            assert convert(convert(7.5, src, dst), dst, src) == pytest.approx(7.5)

    def test_cross_dimension_raises(self):
        with pytest.raises(UnitError, match="cannot convert"):
            convert(1.0, "meter", "celsius")

    def test_unknown_unit_raises(self):
        with pytest.raises(UnitError, match="unknown unit"):
            convert(1.0, "parsec", "meter")


class TestRegistry:

    def test_duplicate_registration_raises(self):
        registry = UnitRegistry()
        registry.register(Unit("meter", "length", 1.0))
        with pytest.raises(UnitError, match="already registered"):
            registry.register(Unit("meter", "length", 1.0))

    def test_duplicate_alias_raises(self):
        registry = UnitRegistry()
        registry.register(Unit("meter", "length", 1.0), ["m"])
        with pytest.raises(UnitError, match="alias"):
            registry.register(Unit("minute", "duration", 60.0), ["m"])

    def test_alias_resolution_case_insensitive(self):
        assert DEFAULT_UNITS.resolve("KM/H").name == "kmh"

    def test_affine_unit_round_trip(self):
        fahrenheit = DEFAULT_UNITS.resolve("fahrenheit")
        assert fahrenheit.from_base(fahrenheit.to_base(98.6)) == pytest.approx(98.6)
