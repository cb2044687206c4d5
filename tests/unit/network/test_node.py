"""Unit tests for network nodes and load accounting."""

import pytest

from repro.errors import NetworkError
from repro.network.node import NetworkNode


@pytest.fixture
def node():
    return NetworkNode("n1")


class TestConstruction:
    def test_defaults(self, node):
        assert node.up and node.capacity == 1000.0

    def test_empty_id_raises(self):
        with pytest.raises(NetworkError):
            NetworkNode("")

    def test_non_positive_capacity_raises(self):
        with pytest.raises(NetworkError):
            NetworkNode("n1", capacity=0.0)


class TestLoadAccounting:
    def test_register_and_demand(self):
        node = NetworkNode("n1", capacity=100.0)
        node.register_process("p1", demand=30.0)
        node.register_process("p2", demand=50.0)
        assert node.load == 80.0
        assert node.utilization == pytest.approx(0.8)
        assert node.headroom == pytest.approx(20.0)

    def test_duplicate_registration_raises(self, node):
        node.register_process("p1")
        with pytest.raises(NetworkError, match="already placed"):
            node.register_process("p1")

    def test_update_demand(self):
        node = NetworkNode("n1", capacity=100.0)
        node.register_process("p1", demand=10.0)
        node.update_demand("p1", 90.0)
        assert node.load == 90.0

    def test_update_unknown_raises(self, node):
        with pytest.raises(NetworkError, match="not on node"):
            node.update_demand("ghost", 1.0)

    def test_unregister(self, node):
        node.register_process("p1", demand=10.0)
        node.unregister_process("p1")
        assert node.load == 0.0
        with pytest.raises(NetworkError):
            node.unregister_process("p1")

    def test_negative_demand_clamped(self, node):
        node.register_process("p1", demand=-5.0)
        assert node.load == 0.0

    def test_overload_detection(self):
        node = NetworkNode("n1", capacity=10.0)
        node.register_process("p1", demand=11.0)
        assert node.is_overloaded()
        assert not node.is_overloaded(threshold=1.2)
        assert node.utilization > 1.0
        assert node.headroom == 0.0

    def test_work_accounting(self, node):
        node.account_work(5.0)
        node.account_work(3.0)
        assert node.work_done == 8.0


class TestFailure:
    def test_fail_recover(self, node):
        node.fail()
        assert not node.up
        node.recover()
        assert node.up
