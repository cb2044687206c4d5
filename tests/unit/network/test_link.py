"""Unit tests for network links."""

import pytest

from repro.errors import NetworkError
from repro.network.link import Link


class TestConstruction:
    def test_self_loop_raises(self):
        with pytest.raises(NetworkError):
            Link("a", "a")

    def test_negative_latency_raises(self):
        with pytest.raises(NetworkError):
            Link("a", "b", latency=-1.0)

    def test_zero_bandwidth_raises(self):
        with pytest.raises(NetworkError):
            Link("a", "b", bandwidth=0.0)

    def test_key_is_canonical(self):
        assert Link("b", "a").key == Link("a", "b").key == ("a", "b")


class TestEndpoints:

    def test_fail_recover(self):
        link = Link("a", "b")
        link.fail()
        assert not link.up
        link.recover()
        assert link.up
