"""Unit tests for the DSN program model."""

import pytest

from repro.dsn.ast import DsnProgram, DsnService, ServiceRole
from repro.errors import DsnError
from repro.network.qos import QosPolicy
from repro.pubsub.subscription import SubscriptionFilter
from tests.builders import dsn
from tests.unit.dsn.test_check import row
from tests.unit.dsn.test_goldens import golden


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
    # The goldens pin each statement's form, params sorted by key (field
    # order differs), and ``shard ... by ...`` with and without ``elastic``.
    test_render_contains_all_statements = golden("p2-torrential-rain")
    test_render_is_deterministic = golden()
    test_params_sorted = golden("p1-apparent-temperature")

    def test_qos_rendered(self):
        service = DsnService(
            role=ServiceRole.SINK, name="k", kind="warehouse",
            qos=QosPolicy(qos_class="real-time", segment_bytes=512,
                          priority=1, max_latency=0.25),
        )
        text = service.render()
        assert 'qos class "real-time" segment 512 priority 1 max_latency 0.25;' in text

    test_shard_rendered = golden("p5-sharded-stations")
    test_elastic_shard_rendered = golden("p6-elastic-stations")
