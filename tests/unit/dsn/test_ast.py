"""Unit tests for the DSN program model."""

import pytest

from repro.dsn.ast import (
    DsnProgram,
    DsnService,
    DsnShard,
    ServiceRole,
)
from repro.errors import DsnError
from repro.network.qos import QosPolicy
from repro.pubsub.subscription import SubscriptionFilter
from tests.builders import dsn
from tests.unit.dsn.test_check import row


def small_program() -> DsnProgram:
    return dsn("src > f", "f > k", src=SubscriptionFilter(sensor_type="rain"),
               f=("filter", {"condition": "rain_rate > 10"}), k="collector")


@pytest.fixture
def program():
    return small_program()


class TestModel:
    def test_service_lookup(self, program):
        assert program.service("f").kind == "filter"
        with pytest.raises(DsnError):
            program.service("ghost")

    def test_services_by_role(self, program):
        assert [s.name for s in program.services_by_role(ServiceRole.SOURCE)] \
            == ["src"]

    def test_channels_into_sorted_by_port(self):
        program = dsn("b > j:1", "a > j:0", **dict.fromkeys("abj", ("filter",)))
        assert [c.port for c in program.channels_into("j")] == [0, 1]

    def test_role_parse(self):
        assert ServiceRole.parse("operator") is ServiceRole.OPERATOR
        with pytest.raises(DsnError):
            ServiceRole.parse("widget")


class TestCheck:
    test_valid_program_passes = row("valid")
    test_duplicate_services_fail = row("duplicate-service")
    test_dangling_channel_fails = row("channel-undeclared")
    test_dangling_control_fails = row("control-undeclared")


class TestRender:
    def test_render_contains_all_statements(self):
        text = small_program().render()
        assert 'dsn "p" {' in text
        assert 'service source "src" kind "sensor-stream"' in text
        assert 'param condition = "rain_rate > 10";' in text
        assert 'channel "src" -> "f" port 0;' in text
        assert text.rstrip().endswith("}")

    def test_render_is_deterministic(self):
        assert small_program().render() == small_program().render()

    def test_params_sorted(self):
        service = DsnService(role=ServiceRole.OPERATOR, name="x", kind="k",
                             params={"zeta": 1, "alpha": 2})
        text = service.render()
        assert text.index("alpha") < text.index("zeta")

    def test_qos_rendered(self):
        service = DsnService(
            role=ServiceRole.SINK, name="k", kind="warehouse",
            qos=QosPolicy(qos_class="real-time", segment_bytes=512,
                          priority=1, max_latency=0.25),
        )
        text = service.render()
        assert 'qos class "real-time" segment 512 priority 1 max_latency 0.25;' in text

    def test_shard_rendered(self, program):
        program.shards.append(
            DsnShard(service="f", count=4, keys=("station",)))
        assert 'shard "f" 4 by "station";' in program.render()

    def test_elastic_shard_rendered(self, program):
        program.shards.append(
            DsnShard(service="f", count=4, keys=("station",), elastic=True))
        assert 'shard "f" 4 by "station" elastic;' in program.render()
