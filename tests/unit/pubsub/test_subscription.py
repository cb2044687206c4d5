"""Unit tests for subscription filters and activation."""

import pytest

from repro.errors import PubSubError
from repro.pubsub.subscription import (
    DEAD_LETTER_CAPACITY, Subscription, SubscriptionFilter,
)
from repro.streams.tuple import TupleBatch
from repro.stt.spatial import Box
from repro.stt.thematic import Theme
from tests.unit.pubsub.test_registry import make_metadata


def listening(callback) -> Subscription:
    """A catch-all subscription on ``n1`` calling ``callback``."""
    return Subscription(filter=SubscriptionFilter(), callback=callback,
                        node_id="n1")

class TestFilterMatching:
    def test_empty_filter_matches_everything(self):
        assert SubscriptionFilter().matches(make_metadata())

    def test_by_sensor_id(self):
        filter_ = SubscriptionFilter.for_sensor("temp-1")
        assert filter_.matches(make_metadata("temp-1"))
        assert not filter_.matches(make_metadata("temp-2"))

    def test_by_type(self):
        filter_ = SubscriptionFilter(sensor_type="rain")
        assert not filter_.matches(make_metadata(sensor_type="temperature"))
        assert filter_.matches(make_metadata(sensor_type="rain"))

    def test_by_theme_hierarchy(self):
        filter_ = SubscriptionFilter(theme=Theme("weather"))
        assert filter_.matches(make_metadata(themes=("weather/temperature",)))
        assert not filter_.matches(make_metadata(themes=("mobility/traffic",)))

    def test_by_area(self):
        osaka = Box(south=34.5, west=135.3, north=34.9, east=135.7)
        filter_ = SubscriptionFilter(area=osaka)
        assert filter_.matches(make_metadata())  # Osaka point fixture

    def test_by_frequency_band(self):
        filter_ = SubscriptionFilter(min_frequency=0.01, max_frequency=0.1)
        assert filter_.matches(make_metadata(frequency=1.0 / 60.0))
        assert not filter_.matches(make_metadata(frequency=10.0))

    def test_conjunction(self):
        filter_ = SubscriptionFilter(sensor_type="temperature",
                                     sensor_ids=("other",))
        assert not filter_.matches(make_metadata("temp-1", "temperature"))

    def test_inverted_band_raises(self):
        with pytest.raises(PubSubError):
            SubscriptionFilter(min_frequency=10.0, max_frequency=1.0)


class TestSubscriptionDelivery:
    def test_active_delivers(self, make_tuple):
        seen = []
        subscription = listening(seen.append)
        assert subscription.deliver(make_tuple(0)) == 1
        assert subscription.delivered == 1
        assert len(seen) == 1

    def test_paused_suppresses(self, make_tuple):
        seen = []
        subscription = listening(seen.append)
        subscription.pause()
        assert subscription.deliver(make_tuple(0)) == 0
        assert subscription.suppressed == 1
        assert seen == []

    def test_resume(self, make_tuple):
        subscription = listening(lambda t: None)
        subscription.pause()
        subscription.resume()
        assert subscription.deliver(make_tuple(0)) == 1

    def test_batch_without_batch_callback_unrolls_in_order(self, make_tuple):
        seen = []
        subscription = listening(seen.append)
        tuples = [make_tuple(seq) for seq in range(3)]
        assert subscription.deliver(TupleBatch.of(tuples)) == 3
        assert seen == tuples
        assert subscription.delivered == 3

    def test_unique_ids(self):
        a, b = listening(lambda t: None), listening(lambda t: None)
        assert a.subscription_id != b.subscription_id

    def test_dead_letter_queue_keeps_the_newest_in_order(self, make_tuple):
        subscription = listening(lambda t: None)
        for seq in range(DEAD_LETTER_CAPACITY + 5):
            subscription.dead_letter(make_tuple(seq), "lost", float(seq))
        assert [letter.tuple.seq for letter in subscription.dead_letters] == (
            list(range(5, DEAD_LETTER_CAPACITY + 5)))
