"""Unit tests for the broker network (overlay + data plane)."""

import pytest

from repro.errors import PubSubError
from repro.network.netsim import NetworkSimulator
from repro.network.topology import Topology
from repro.pubsub.broker import Broker, BrokerNetwork, RetryPolicy
from repro.pubsub.stamping import backfill_stamp
from repro.pubsub.subscription import Subscription, SubscriptionFilter
from tests.unit.pubsub.test_registry import make_metadata


def advertise(network, sensor_id="temp-1", **fields):
    """Publish a sensor's metadata; returns it."""
    metadata = make_metadata(sensor_id, **fields)
    network.publish(metadata)
    return metadata


def collect(network, node_id, filter_=None):
    """Subscribe a list on ``node_id``; returns (subscription, list)."""
    seen = []
    return network.subscribe(node_id, filter_ or SubscriptionFilter(),
                             seen.append), seen


def publish_reading(network, metadata, now=0.0, seq=0, value=1.0):
    tuple_ = backfill_stamp({"v": value}, metadata, now=now, seq=seq)
    return network.publish_data(metadata.sensor_id, tuple_)


@pytest.fixture
def net(local_broker_net):
    return local_broker_net


class TestPublish:
    def test_publish_registers_and_propagates(self, net):
        other = net.broker("n-other")
        metadata = advertise(net, node_id="n-home")
        assert "temp-1" in net.registry
        assert "temp-1" in other.known_sensors
        assert net.advertisements_sent == 1

    def test_unpublish_removes_routes(self, net):
        metadata = advertise(net)
        net.subscribe("edge-0", SubscriptionFilter(), lambda t: None)
        assert net._routes["temp-1"]
        net.unpublish("temp-1")
        assert "temp-1" not in net._routes

    def test_publish_callbacks(self, local_broker_net):
        events = []
        local_broker_net.on_sensor_published = lambda m: events.append(("+", m.sensor_id))
        local_broker_net.on_sensor_unpublished = lambda m: events.append(("-", m.sensor_id))
        local_broker_net.publish(make_metadata())
        local_broker_net.unpublish("temp-1")
        assert events == [("+", "temp-1"), ("-", "temp-1")]

    def test_broker_on_unknown_node_raises_with_netsim(self, broker_net):
        with pytest.raises(PubSubError, match="no network node"):
            broker_net.broker("ghost-node")


class TestSubscriptionRouting:
    def test_existing_subscription_matches_new_sensor(self, net):
        # Plug-and-play: a new sensor matching a standing filter routes
        # automatically (demo part P3).
        _, seen = collect(net, "n1", SubscriptionFilter(sensor_type="temperature"))
        metadata = advertise(net, "late-sensor")
        publish_reading(net, metadata)
        assert len(seen) == 1

    def test_new_subscription_matches_existing_sensor(self, net):
        metadata = advertise(net)
        _, seen = collect(net, "n1", SubscriptionFilter(sensor_type="temperature"))
        publish_reading(net, metadata)
        assert len(seen) == 1

    def test_non_matching_filter_receives_nothing(self, net):
        metadata = advertise(net)
        seen = []
        net.subscribe("n1", SubscriptionFilter(sensor_type="rain"), seen.append)
        publish_reading(net, metadata)
        assert seen == []

    def test_unsubscribe_stops_delivery(self, net):
        metadata = advertise(net)
        subscription, seen = collect(net, "n1")
        net.unsubscribe(subscription)
        publish_reading(net, metadata)
        assert seen == []

    def test_multiple_subscribers_fan_out(self, net):
        metadata = advertise(net)
        counts = {"a": 0, "b": 0}
        net.subscribe("n1", SubscriptionFilter(),
                      lambda t: counts.__setitem__("a", counts["a"] + 1))
        net.subscribe("n2", SubscriptionFilter(),
                      lambda t: counts.__setitem__("b", counts["b"] + 1))
        assert publish_reading(net, metadata) == 2
        assert counts == {"a": 1, "b": 1}


class TestKnownSensorBackfill:
    def test_late_broker_knows_existing_sensors(self, net):
        # A broker created after sensors were published missed their
        # advertisements; creation back-fills from the registry.
        net.publish(make_metadata("temp-1"))
        net.publish(make_metadata("temp-2"))
        late = net.broker("n-late")
        assert late.known_sensors == {"temp-1", "temp-2"}

    def test_backfill_excludes_unpublished(self, net):
        net.publish(make_metadata("temp-1"))
        net.publish(make_metadata("temp-2"))
        net.unpublish("temp-1")
        assert net.broker("n-late").known_sensors == {"temp-2"}

    def test_empty_registry_backfills_nothing(self, local_broker_net):
        assert local_broker_net.broker("n-late").known_sensors == set()


class TestBrokerSubscriptionStore:
    def test_subscriptions_keep_insertion_order(self):
        broker = Broker(node_id="n1")
        subs = [
            Subscription(filter=SubscriptionFilter(), callback=lambda t: None,
                         node_id="n1")
            for _ in range(5)
        ]
        for sub in subs:
            broker.add_subscription(sub)
        assert broker.subscriptions == subs
        broker.remove_subscription(subs[2])
        assert broker.subscriptions == subs[:2] + subs[3:]

    def test_remove_unknown_subscription_raises(self):
        broker = Broker(node_id="n1")
        stranger = Subscription(filter=SubscriptionFilter(),
                                callback=lambda t: None, node_id="n1")
        with pytest.raises(PubSubError, match="not on broker"):
            broker.remove_subscription(stranger)

    def test_double_unsubscribe_raises(self, net):
        subscription = net.subscribe("n1", SubscriptionFilter(), lambda t: None)
        net.unsubscribe(subscription)
        with pytest.raises(PubSubError, match="not on broker"):
            net.unsubscribe(subscription)


class TestIncrementalRouteMaintenance:
    def routes_snapshot(self, net):
        return {
            sensor_id: set(id(s) for s in subs)
            for sensor_id, subs in net._routes.items()
            if subs
        }

    @staticmethod
    def rebuild_all(net):
        """The full O(sensors x subscriptions) rebuild: the reference the
        incremental maintenance must equal."""
        for sensor_id in [s for s in net._routes if s not in net.registry]:
            del net._routes[sensor_id]
        for metadata in net.registry.all():
            net._rebuild_routes_for(metadata.sensor_id)

    def test_subscribe_matches_rebuild_all(self, net):
        for i in range(3):
            net.publish(make_metadata(f"temp-{i}"))
        net.subscribe("n1", SubscriptionFilter(sensor_type="temperature"),
                      lambda t: None)
        net.subscribe("n2", SubscriptionFilter(sensor_type="rain"),
                      lambda t: None)
        incremental = self.routes_snapshot(net)
        self.rebuild_all(net)
        assert self.routes_snapshot(net) == incremental

    def test_unsubscribe_matches_rebuild_all(self, net):
        for i in range(3):
            net.publish(make_metadata(f"temp-{i}"))
        keep = net.subscribe("n1", SubscriptionFilter(), lambda t: None)
        drop = net.subscribe("n2", SubscriptionFilter(), lambda t: None)
        net.unsubscribe(drop)
        incremental = self.routes_snapshot(net)
        self.rebuild_all(net)
        assert self.routes_snapshot(net) == incremental
        assert all(id(keep) in subs for subs in incremental.values())

    def test_interleaved_publish_subscribe_consistent(self, net):
        net.publish(make_metadata("temp-0"))
        s1 = net.subscribe("n1", SubscriptionFilter(sensor_type="temperature"),
                           lambda t: None)
        net.publish(make_metadata("temp-1"))
        s2 = net.subscribe("n2", SubscriptionFilter(), lambda t: None)
        net.unsubscribe(s1)
        net.publish(make_metadata("temp-2"))
        incremental = self.routes_snapshot(net)
        self.rebuild_all(net)
        assert self.routes_snapshot(net) == incremental
        assert all(id(s2) in subs for subs in incremental.values())


class TestSuppression:
    def test_paused_subscription_generates_no_traffic(self, broker_net):
        net = broker_net
        metadata = advertise(net, node_id="edge-0")
        subscription, seen = collect(net, "hub")
        subscription.pause()
        sent_before = net.netsim.stats.messages_sent
        assert publish_reading(net, metadata) == 0
        assert net.netsim.stats.messages_sent == sent_before
        assert net.data_messages_suppressed == 1

    def test_resume_restores_traffic(self, broker_net):
        net = broker_net
        metadata = advertise(net, node_id="edge-0")
        subscription, seen = collect(net, "hub")
        subscription.pause()
        publish_reading(net, metadata, seq=0)
        subscription.resume()
        publish_reading(net, metadata, seq=1)
        net.netsim.clock.run()
        assert len(seen) == 1


class TestNetworkedDelivery:
    def test_delivery_crosses_simulated_links(self, broker_net):
        net = broker_net
        metadata = advertise(net, node_id="edge-0")
        _, seen = collect(net, "edge-1")
        publish_reading(net, metadata)
        assert seen == []  # not yet: in flight
        net.netsim.clock.run()
        assert len(seen) == 1
        assert net.netsim.total_link_bytes() > 0


class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.5, multiplier=2.0,
                             max_delay=3.0)
        assert policy.backoff(1) == 0.5
        assert policy.backoff(2) == 1.0
        assert policy.backoff(3) == 2.0
        assert policy.backoff(4) == 3.0  # capped
        assert policy.backoff(5) == 3.0

    def test_invalid_policies_rejected(self):
        with pytest.raises(PubSubError):
            RetryPolicy(max_attempts=-1)
        with pytest.raises(PubSubError):
            RetryPolicy(base_delay=0.0)
        with pytest.raises(PubSubError):
            RetryPolicy(multiplier=0.5)


def retrying_net(max_attempts=3):
    netsim = NetworkSimulator(topology=Topology.star(leaf_count=3))
    policy = RetryPolicy(max_attempts=max_attempts, base_delay=1.0,
                         multiplier=2.0, max_delay=60.0)
    return BrokerNetwork(netsim=netsim, retry_policy=policy)


class TestRetryAndDeadLetter:
    def test_transient_outage_recovered_by_retry(self):
        net = retrying_net()
        metadata = advertise(net, node_id="edge-0")
        _, seen = collect(net, "edge-1")
        net.netsim.kill_node("edge-1")
        publish_reading(net, metadata)
        # Back up before the retry budget exhausts (delays 1 + 2 + 4).
        net.netsim.clock.schedule(2.0, lambda: net.netsim.revive_node("edge-1"))
        net.netsim.clock.run()
        assert len(seen) == 1
        assert net.data_messages_retried >= 1
        assert net.data_messages_dead_lettered == 0

    def test_exhausted_retries_dead_letter(self):
        net = retrying_net(max_attempts=2)
        metadata = advertise(net, node_id="edge-0")
        subscription, seen = collect(net, "edge-1")
        letters = []
        net.on_dead_letter = lambda sub, t, reason: letters.append((sub, reason))
        net.netsim.kill_node("edge-1")
        publish_reading(net, metadata)
        net.netsim.clock.run()
        assert seen == []
        assert net.data_messages_retried == 2
        assert net.data_messages_dead_lettered == 1
        assert subscription.retries == 2
        assert len(subscription.dead_letters) == 1
        assert letters and letters[0][0] is subscription

    def test_zero_attempt_policy_dead_letters_immediately(self):
        net = retrying_net(max_attempts=0)
        metadata = advertise(net, node_id="edge-0")
        subscription = net.subscribe("edge-1", SubscriptionFilter(),
                                     lambda t: None)
        net.netsim.kill_node("edge-1")
        publish_reading(net, metadata)
        net.netsim.clock.run()
        assert net.data_messages_retried == 0
        assert len(subscription.dead_letters) == 1

    def test_retry_follows_moved_subscription(self):
        # A subscription re-pointed between attempts (process re-placed
        # after a node death) receives the retried tuple at its new home.
        net = retrying_net()
        metadata = advertise(net, node_id="edge-0")
        subscription, seen = collect(net, "edge-1")
        net.netsim.kill_node("edge-1")
        publish_reading(net, metadata)

        def relocate():
            subscription.node_id = "edge-2"

        net.netsim.clock.schedule(0.5, relocate)
        net.netsim.clock.run()
        assert len(seen) == 1
        assert net.data_messages_dead_lettered == 0

    def test_local_network_never_retries(self, net):
        metadata = advertise(net)
        _, seen = collect(net, "n1")
        publish_reading(net, metadata)
        assert len(seen) == 1
        assert net.data_messages_retried == 0
