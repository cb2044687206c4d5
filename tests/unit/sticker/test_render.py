"""Unit tests for Sticker ASCII renderings."""

from repro.sticker.feed import StickerFeed
from repro.sticker.render import render_series


class TestRenderSeries:
    def test_counts_trend(self, make_tuple):
        feed = StickerFeed(bucket_seconds=3600.0)
        for i in range(3):
            feed.push(make_tuple(i, time=100.0))
        feed.push(make_tuple(9, time=4000.0))
        text = render_series(feed, "weather/temperature")
        assert "trend" in text
        assert text.count("\n") == 2  # header + 2 buckets

    def test_attribute_trend(self, make_tuple):
        feed = StickerFeed()
        feed.push(make_tuple(0, temperature=30.0))
        text = render_series(feed, "weather", attribute="temperature")
        assert "30.00" in text

    def test_empty_feed(self):
        feed = StickerFeed()
        assert "no data" in render_series(feed, "weather")

    def test_missing_attribute(self, make_tuple):
        feed = StickerFeed()
        feed.push(make_tuple(0))
        assert "no numeric data" in render_series(feed, "weather",
                                                  attribute="ghost")
