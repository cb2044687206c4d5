"""Channel ``batch N within S``: syntax, translation, and the deployed
program deciding how the sensors it binds publish."""

from repro.dataflow.ops import FilterSpec
from repro.dsn.ast import DsnChannel
from repro.dsn.generate import dataflow_to_dsn
from repro.dsn.parse import parse_dsn
from repro.pubsub.subscription import BatchingPolicy, SubscriptionFilter
from repro.sensors.base import SimulatedSensor
from tests.builders import executor_stack, pipeline
from tests.unit.dsn.test_ast import small_program
from tests.unit.dsn.test_goldens import golden
from tests.unit.pubsub.test_registry import make_metadata


class TestChannelSyntax:
    test_default_batch_renders_unchanged = golden()

    def test_batch_renders_and_round_trips(self):
        program = small_program()
        program.channels[0] = DsnChannel("src", "f", 0, batch=16)
        program.channels[1] = DsnChannel("f", "out", 0, batch=1, within=0.5)
        text = program.render()
        assert 'channel "src" -> "f" port 0 batch 16;' in text
        assert 'channel "f" -> "out" port 0 batch 1 within 0.5;' in text
        parsed = parse_dsn(text)
        assert [(c.batch, c.within) for c in parsed.channels] == [
            (16, 1.0), (1, 0.5)]
        assert parsed.render() == text

    test_batch_free_program_text_is_stable = golden()


def _temperature_flow(name="hints"):
    return pipeline(name, ("keep", FilterSpec("v > 0")), source="temp")


class TestHintDerivation:
    test_no_delay_no_hints = golden()

    def test_batching_lands_on_source_channels_only(self):
        program = dataflow_to_dsn(_temperature_flow(),
                                  batching=BatchingPolicy(16, 60.0))
        assert [(c.batch, c.within) for c in program.channels] == [
            (16, 60.0), (1, 1.0)]


def _rig():
    """An executor over ``hub``, a 1 Hz sensor ``t0`` on it, and the
    messages a plain subscriber receives (the seqs of each, in order)."""
    netsim, network, executor = executor_stack()
    _attach(network, netsim.clock, "t0")
    messages = []
    tap = network.subscribe("hub", SubscriptionFilter(),
                            lambda reading: messages.append([reading.seq]))
    tap.batch_callback = lambda batch: messages.append([t.seq for t in batch])
    return netsim.clock, network, executor, messages


def _attach(network, clock, sensor_id):
    SimulatedSensor(make_metadata(sensor_id, frequency=1.0, node_id="hub"),
                    generator=lambda now, rng: {"v": now}).attach(network, clock)


def _deploy(executor, batch, name="hints", within=100.0):
    return executor.deploy(dataflow_to_dsn(
        _temperature_flow(name), batching=BatchingPolicy(batch, within)))


class TestDeployed:
    def test_a_bound_sensor_publishes_n_tuple_messages(self):
        clock, _, executor, messages = _rig()
        _deploy(executor, 4)
        clock.run_until(8.5)
        assert messages == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_a_sensor_that_joins_later_batches_too(self):
        clock, network, executor, messages = _rig()
        _deploy(executor, 4)
        clock.run_until(0.5)
        _attach(network, clock, "t1")
        clock.run_until(8.7)
        assert network.batching_for("t1") == BatchingPolicy(4, 100.0)
        assert [len(message) for message in messages] == [4, 4, 4, 4]

    def test_teardown_publishes_per_tuple_losing_nothing(self):
        clock, network, executor, messages = _rig()
        deployment = _deploy(executor, 4)
        clock.run_until(6.5)
        deployment.teardown()
        assert network.batching_for("t0") is None
        clock.run_until(8.5)
        # The two readings buffered at teardown go out first, as one
        # message; then one message per reading.
        assert messages == [[0, 1, 2, 3], [4, 5], [6], [7]]

    def test_two_deployments_take_the_larger_batch_until_one_goes(self):
        clock, network, executor, messages = _rig()
        _deploy(executor, 4, name="four")
        eight = _deploy(executor, 8, name="eight", within=200.0)
        # The largest batch, flushed by the tightest bound.
        assert network.batching_for("t0") == BatchingPolicy(8, 100.0)
        clock.run_until(8.5)
        eight.teardown()
        clock.run_until(16.5)
        assert messages == [list(range(8)), list(range(8, 12)),
                            list(range(12, 16))]
        assert network.batching_for("t0") == BatchingPolicy(4, 100.0)
