"""Unit tests for attribute types."""

import pytest

from repro.errors import TypeMismatchError
from repro.schema.types import (
    AttributeType, common_type, infer_type, widens_to,
)
from repro.stt.spatial import Point


class TestParse:
    @pytest.mark.parametrize("alias,member", [
        ("boolean", AttributeType.BOOL),
        ("integer", AttributeType.INT),
        ("double", AttributeType.FLOAT),
        ("real", AttributeType.FLOAT),
        ("str", AttributeType.STRING),
        ("datetime", AttributeType.TIMESTAMP),
        ("point", AttributeType.GEO),
    ])
    def test_aliases(self, alias, member):
        assert AttributeType.parse(alias) is member

    def test_unknown_raises(self):
        with pytest.raises(TypeMismatchError):
            AttributeType.parse("blob")

    def test_idempotent(self):
        assert AttributeType.parse(AttributeType.INT) is AttributeType.INT


class TestWidening:
    def test_chain(self):
        assert widens_to(AttributeType.BOOL, AttributeType.INT)
        assert widens_to(AttributeType.INT, AttributeType.FLOAT)
        assert widens_to(AttributeType.BOOL, AttributeType.FLOAT)

    def test_not_backwards(self):
        assert not widens_to(AttributeType.FLOAT, AttributeType.INT)
        assert not widens_to(AttributeType.INT, AttributeType.BOOL)

    def test_string_isolated(self):
        assert not widens_to(AttributeType.INT, AttributeType.STRING)
        assert not widens_to(AttributeType.STRING, AttributeType.FLOAT)

    def test_reflexive(self):
        for member in AttributeType:
            assert widens_to(member, member)


class TestCommonType:
    def test_int_float(self):
        assert common_type(AttributeType.INT, AttributeType.FLOAT) is AttributeType.FLOAT

    def test_same(self):
        assert common_type(AttributeType.STRING, AttributeType.STRING) is AttributeType.STRING

    def test_incompatible_raises(self):
        with pytest.raises(TypeMismatchError):
            common_type(AttributeType.STRING, AttributeType.INT)


class TestInferType:
    @pytest.mark.parametrize("value,member", [
        (True, AttributeType.BOOL),
        (3, AttributeType.INT),
        (3.5, AttributeType.FLOAT),
        ("x", AttributeType.STRING),
        (Point(0, 0), AttributeType.GEO),
    ])
    def test_inference(self, value, member):
        assert infer_type(value) is member

    def test_unknown_raises(self):
        with pytest.raises(TypeMismatchError):
            infer_type(object())
