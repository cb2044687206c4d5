"""Unit tests: single-pass batch fan-out through the broker overlay."""

import pytest

from repro.errors import PubSubError
from repro.pubsub.subscription import SubscriptionFilter
from tests.unit.pubsub.test_registry import make_metadata


def make_batch(make_tuple, count: int, start: int = 0):
    return [make_tuple(seq=start + i, temperature=20.0 + i)
            for i in range(count)]


TEMPERATURE = SubscriptionFilter(sensor_type="temperature")


def temperature_net(net, home="edge-1"):
    """``net`` with sensor ``t1`` advertised from ``home``."""
    net.publish(make_metadata("t1", "temperature", node_id=home))
    return net


class TestPublishBatch:
    def test_fans_out_to_every_matching_subscriber(self, local_broker_net,
                                                   make_tuple):
        net = temperature_net(local_broker_net)
        seen_a, seen_b = [], []
        net.subscribe("edge-1", TEMPERATURE, seen_a.append)
        net.subscribe("edge-2", TEMPERATURE, seen_b.append)
        batch = make_batch(make_tuple, 5)
        initiated = net.publish_batch("t1", batch)
        assert initiated == 2
        assert seen_a == batch
        assert seen_b == batch

    def test_counters_are_tuple_and_message_denominated(self,
                                                        local_broker_net,
                                                        make_tuple):
        net = temperature_net(local_broker_net)
        net.subscribe("edge-1", TEMPERATURE, lambda _t: None)
        net.publish_batch("t1", make_batch(make_tuple, 7))
        assert net.data_messages_sent == 1
        assert net.data_tuples_sent == 7

    def test_paused_subscription_suppresses_whole_batch(self,
                                                        local_broker_net,
                                                        make_tuple):
        net = temperature_net(local_broker_net)
        seen = []
        subscription = net.subscribe("edge-1", TEMPERATURE, seen.append)
        subscription.active = False
        initiated = net.publish_batch("t1", make_batch(make_tuple, 4))
        assert initiated == 0
        assert seen == []
        assert subscription.suppressed == 4
        assert net.data_messages_suppressed == 1
        assert net.data_tuples_suppressed == 4

    def test_empty_batch_is_a_no_op(self, local_broker_net):
        net = temperature_net(local_broker_net)
        assert net.publish_batch("t1", []) == 0
        assert net.data_messages_sent == 0

    def test_batch_callback_takes_precedence(self, local_broker_net,
                                             make_tuple):
        net = temperature_net(local_broker_net)
        per_tuple, whole = [], []
        subscription = net.subscribe("edge-1", TEMPERATURE, per_tuple.append)
        subscription.batch_callback = whole.append
        batch = make_batch(make_tuple, 3)
        net.publish_batch("t1", batch)
        assert per_tuple == []
        assert len(whole) == 1
        assert list(whole[0]) == batch
        assert subscription.delivered == 3

    def test_crosses_simulated_links_as_one_message(self, broker_net,
                                                    make_tuple):
        net = temperature_net(broker_net, "edge-0")
        seen = []
        net.subscribe("edge-1", TEMPERATURE, seen.append)
        batch = make_batch(make_tuple, 6)
        net.publish_batch("t1", batch)
        net.netsim.clock.run()
        assert seen == batch
        assert net.netsim.stats.messages_sent == 1
        assert net.netsim.stats.tuples_delivered == 6

    def test_exhausted_batch_dead_letters_every_tuple(self, broker_net,
                                                      make_tuple):
        net = temperature_net(broker_net, "edge-0")
        subscription = net.subscribe(
            "edge-1", SubscriptionFilter(sensor_type="temperature"),
            lambda _t: None,
        )
        abandoned = []
        net.on_dead_letter = (
            lambda sub, tuple_, reason: abandoned.append(tuple_.seq))
        net.netsim.topology.node("edge-1").fail()
        batch = make_batch(make_tuple, 3)
        pending = net.netsim.clock.pending
        net.publish_batch("t1", batch)
        # Lost at send time: one backoff timer for the whole message.
        assert net.netsim.clock.pending == pending + 1
        assert subscription.retries == 1
        net.netsim.clock.run()
        assert abandoned == [0, 1, 2]
        assert [letter.tuple.seq for letter in subscription.dead_letters] \
            == [0, 1, 2]
        assert net.data_messages_dead_lettered == 3
        # The whole batch retried as one message per attempt.
        assert net.data_messages_retried == net.retry_policy.max_attempts

    def test_unknown_sensor_raises(self, local_broker_net, make_tuple):
        with pytest.raises(PubSubError):
            local_broker_net.publish_batch("ghost", make_batch(make_tuple, 1))
