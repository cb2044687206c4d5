"""Unit tests for the Sticker feed."""

import math

import pytest

from repro.errors import GranularityError, StreamLoaderError
from repro.sticker.feed import StickerFeed
from repro.streams.tuple import TupleBatch
from repro.stt.event import SttStamp
from repro.stt.spatial import Point, grid_cell_for, representative_point


class TestBinning:
    def test_bins_by_time_bucket(self, make_tuple):
        feed = StickerFeed(bucket_seconds=3600.0)
        feed.push(make_tuple(0, time=100.0))
        feed.push(make_tuple(1, time=200.0))
        feed.push(make_tuple(2, time=4000.0))
        bins = feed.bins()
        assert len(bins) == 2
        assert bins[0].count == 2 and bins[1].count == 1

    def test_bins_by_theme(self, make_tuple):
        feed = StickerFeed()
        feed.push(make_tuple(0, themes=("weather/rain",)))
        feed.push(make_tuple(1, themes=("mobility/traffic",)))
        assert feed.themes() == ["mobility/traffic", "weather/rain"]

    def test_multi_theme_tuple_lands_in_each(self, make_tuple):
        feed = StickerFeed()
        feed.push(make_tuple(0, themes=("weather/rain", "disaster/flood")))
        assert len(feed.bins()) == 2

    def test_untagged_bucket(self, make_tuple):
        feed = StickerFeed()
        feed.push(make_tuple(0, themes=()))
        assert feed.themes() == ["(untagged)"]

    def test_numeric_means(self, make_tuple):
        feed = StickerFeed()
        feed.push(make_tuple(0, temperature=10.0))
        feed.push(make_tuple(1, temperature=20.0))
        bin_ = feed.bins()[0]
        assert bin_.mean("temperature") == 15.0
        assert math.isnan(bin_.mean("nonexistent"))

    def test_invalid_bucket_raises(self):
        with pytest.raises(StreamLoaderError):
            StickerFeed(bucket_seconds=0.0)

    @pytest.mark.parametrize("name", ["point", "nonsense"])
    def test_unusable_cell_granularity_raises_at_construction(self, name):
        with pytest.raises(GranularityError):
            StickerFeed(cell_granularity=name)


def _reference_bins(stream, bucket_seconds, cell_granularity):
    """What the feed must hold, computed the obvious way."""
    bins = {}
    for tuple_ in stream:
        bucket = int(tuple_.stamp.time // bucket_seconds)
        cell = grid_cell_for(
            representative_point(tuple_.stamp.location), cell_granularity
        )
        themes = [theme.path for theme in tuple_.stamp.themes] or ["(untagged)"]
        for theme in themes:
            key = (bucket * bucket_seconds, cell.row, cell.col, theme)
            count, sums, counts = bins.get(key, (0, {}, {}))
            for name, value in tuple_.payload.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    sums[name] = sums.get(name, 0.0) + float(value)
                    counts[name] = counts.get(name, 0) + 1
            bins[key] = (count + 1, sums, counts)
    return bins


class TestReferenceEquivalence:
    @pytest.mark.parametrize("granularity", ["district", "city"])
    def test_mixed_stream_bins_equal_reference(
        self, mixed_stream, feedings, granularity
    ):
        # However the stream is cut into messages, the bins are the
        # reference's — sums compared with ``==``: each member's values
        # are added in arrival order, so every float is bit-identical.
        reference = _reference_bins(mixed_stream, 1800.0, granularity)
        for label, messages in feedings(mixed_stream).items():
            feed = StickerFeed(
                bucket_seconds=1800.0, cell_granularity=granularity)
            for message in messages:
                feed.push(message)
            got = {
                (b.bucket_start, b.row, b.col, b.theme):
                    (b.count, b.numeric_sums, b.numeric_counts)
                for b in feed.bins()
            }
            assert feed.pushed == len(mixed_stream), label
            assert got == reference, label
            # Bins are created in first-touch order too (``series`` sums
            # across them in that order).
            assert list(feed._bins) == list(
                _first_touch_keys(mixed_stream, 1800.0, granularity)
            ), label
            assert all(
                type(total) is float
                for _, sums, _ in got.values() for total in sums.values()
            ), label

    def test_a_run_ends_where_any_stamp_field_changes(self, make_tuple):
        # Consecutive members that share some stamp fields but not all:
        # same location object with another bucket, same bucket with
        # another location, same both with other themes.
        first = make_tuple(0, time=10.0)
        stamp = first.stamp
        members = [
            first,
            first.with_stamp(SttStamp(
                7200.0, stamp.location, stamp.temporal_granularity,
                stamp.spatial_granularity, stamp.themes)),
            first.with_stamp(SttStamp(
                7200.0, Point(35.5, 136.5), stamp.temporal_granularity,
                stamp.spatial_granularity, stamp.themes)),
            first.with_stamp(SttStamp(
                7200.0, Point(35.5, 136.5), stamp.temporal_granularity,
                stamp.spatial_granularity, ())),
        ]
        batched, lone = StickerFeed(), StickerFeed()
        batched.push(TupleBatch.of(members))
        for member in members:
            lone.push(member)
        assert len(batched.bins()) == 4
        assert batched.bins() == lone.bins()


def _first_touch_keys(stream, bucket_seconds, cell_granularity):
    """Bin keys in the order the reference first touches them."""
    keys = {}
    for tuple_ in stream:
        bucket = int(tuple_.stamp.time // bucket_seconds)
        cell = grid_cell_for(
            representative_point(tuple_.stamp.location), cell_granularity
        )
        for theme in [t.path for t in tuple_.stamp.themes] or ["(untagged)"]:
            keys.setdefault((bucket, cell.row, cell.col, theme))
    return keys


class TestSeries:
    def test_time_ordered_merged_over_space(self, make_tuple):
        feed = StickerFeed(bucket_seconds=3600.0)
        # Same bucket, two different cells.
        feed.push(make_tuple(0, time=100.0, lat=34.60, lon=135.40))
        feed.push(make_tuple(1, time=200.0, lat=34.75, lon=135.60))
        feed.push(make_tuple(2, time=4000.0))
        series = feed.series("weather/temperature")
        assert [point.count for point in series] == [2, 1]
        assert series[0].bucket_start < series[1].bucket_start

    def test_theme_matching_is_hierarchical(self, make_tuple):
        feed = StickerFeed()
        feed.push(make_tuple(0, themes=("weather/rain",)))
        assert feed.series("weather")[0].count == 1

    def test_empty_series(self, make_tuple):
        feed = StickerFeed()
        assert feed.series("social") == []


class TestJsonDocuments:
    def test_documents_shape(self, make_tuple):
        feed = StickerFeed()
        feed.push(make_tuple(0, temperature=25.0))
        docs = feed.to_json_documents()
        assert len(docs) == 1
        doc = docs[0]
        assert set(doc) == {"bucket_start", "cell", "theme", "count", "means"}
        assert doc["means"]["temperature"] == 25.0
