"""Unit tests: channel ``batch`` hints — AST, parse, derivation, apply."""

from repro.dataflow.graph import Dataflow
from repro.dataflow.ops import FilterSpec
from repro.dsn.ast import DsnChannel
from repro.dsn.generate import dataflow_to_dsn
from repro.dsn.parse import parse_dsn
from repro.pubsub.broker import BrokerNetwork
from repro.scenario import apply_batch_hints
from repro.sensors.base import SimulatedSensor
from tests.builders import executor_stack, pipeline
from tests.unit.dsn.test_ast import small_program
from tests.unit.pubsub.test_registry import make_metadata


class TestChannelSyntax:
    def test_default_batch_renders_unchanged(self):
        channel = DsnChannel("a", "b", 0)
        assert "batch" not in channel.render()

    def test_batch_renders_and_round_trips(self):
        program = small_program()
        program.channels[0] = DsnChannel("src", "f", 0, batch=16)
        text = program.render()
        assert 'channel "src" -> "f" port 0 batch 16;' in text
        parsed = parse_dsn(text)
        assert parsed.channels[0].batch == 16
        assert parsed.channels[1].batch == 1
        assert parsed.render() == text

    def test_batch_free_program_text_is_stable(self):
        # Golden files predate batching; an all-default program must
        # render byte-identically to the historical form.
        program = small_program()
        assert parse_dsn(program.render()).render() == program.render()


def _temperature_flow() -> Dataflow:
    return pipeline("hints", ("keep", FilterSpec("v > 0")), source="temp")


def _registry_with(frequencies: "list[float]"):
    network = BrokerNetwork()
    for index, frequency in enumerate(frequencies):
        network.publish(make_metadata(f"t{index}", "temperature",
                                      frequency=frequency,
                                      node_id="edge-0"))
    return network.registry


class TestHintDerivation:
    def test_hint_is_rate_times_delay(self):
        # Two 2 Hz sensors on the filter: 4 tuples/s x 4 s budget = 16.
        program = dataflow_to_dsn(_temperature_flow(),
                                  _registry_with([2.0, 2.0]), batch_delay=4.0)
        assert program.channels[0].batch == 16
        # Operator-to-operator channels carry no hint.
        assert program.channels[1].batch == 1

    def test_hint_clamped_to_max_batch(self):
        program = dataflow_to_dsn(_temperature_flow(), _registry_with([100.0]),
                                  batch_delay=10.0, max_batch=32)
        assert program.channels[0].batch == 32

    def test_slow_sensor_never_hints_below_one(self):
        program = dataflow_to_dsn(_temperature_flow(),
                                  _registry_with([1.0 / 3600.0]),
                                  batch_delay=1.0)
        assert program.channels[0].batch == 1

    def test_no_delay_no_hints(self):
        program = dataflow_to_dsn(_temperature_flow(), _registry_with([2.0]))
        assert all(channel.batch == 1 for channel in program.channels)


class TestApplyBatchHints:
    def test_deploy_records_and_apply_configures(self):
        netsim, network, executor = executor_stack()

        fleet = [
            SimulatedSensor(
                make_metadata(f"t{i}", "temperature", frequency=2.0,
                              node_id="hub"),
                generator=lambda now, rng: {"v": now},
            )
            for i in range(2)
        ]
        for sensor in fleet:
            sensor.attach(network, netsim.clock)

        program = dataflow_to_dsn(_temperature_flow(), network.registry,
                                  batch_delay=2.0)
        deployment = executor.deploy(program)
        assert deployment.batch_hints == {"temp": 8}

        configured = apply_batch_hints(deployment, fleet, max_delay=2.0)
        assert configured == 2
        for sensor in fleet:
            assert sensor.batching.max_batch == 8
            assert sensor.batching.max_delay == 2.0

        # The configured sensors now move fewer, larger messages.
        netsim.clock.run_until(8.5)
        assert network.data_tuples_sent > 0
        assert network.data_messages_sent < network.data_tuples_sent
