"""Unit tests for the metrics registry and its instruments."""

import json

import pytest

from repro.errors import StreamLoaderError
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


@pytest.fixture
def reg():
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter()
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increment(self):
        with pytest.raises(StreamLoaderError):
            Counter().inc(-1.0)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        g.set(10.0)
        g.inc(-5.0)
        g.inc(2.0)
        assert g.value == 7.0


class TestHistogram:
    def test_cumulative_bucket_counts(self):
        h = Histogram(boundaries=(1.0, 5.0, 10.0))
        for v in (0.5, 0.7, 3.0, 7.0, 100.0):
            h.observe(v)
        assert h.counts == [2, 3, 4]  # <=1, <=5, <=10
        assert h.count == 5
        assert h.sum == pytest.approx(111.2)
        assert h.mean == pytest.approx(111.2 / 5)

    def test_boundary_value_lands_in_its_bucket(self):
        h = Histogram(boundaries=(1.0, 5.0))
        h.observe(1.0)
        assert h.counts == [1, 1]  # le semantics: 1.0 <= 1.0

    def test_quantile_returns_bucket_upper_bound(self):
        h = Histogram(boundaries=(1.0, 5.0, 10.0))
        for v in (0.5, 0.5, 0.5, 7.0):
            h.observe(v)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(1.0) == 10.0

    def test_quantile_above_last_boundary_is_inf(self):
        h = Histogram(boundaries=(1.0,))
        h.observe(50.0)
        assert h.quantile(1.0) == float("inf")

    def test_rejects_unsorted_boundaries(self):
        with pytest.raises(StreamLoaderError):
            Histogram(boundaries=(5.0, 1.0))
        with pytest.raises(StreamLoaderError):
            Histogram(boundaries=(1.0, 1.0))

    def test_quantile_of_empty_histogram_is_zero(self):
        h = Histogram(boundaries=(1.0, 5.0))
        assert h.quantile(0.0) == 0.0
        assert h.quantile(0.99) == 0.0
        assert h.quantile(1.0) == 0.0

    def test_quantile_extremes(self):
        h = Histogram(boundaries=(1.0, 5.0, 10.0))
        for v in (0.5, 3.0, 7.0):
            h.observe(v)
        # q=0 has rank 0: every cumulative count satisfies >= 0.
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 10.0

    def test_quantile_all_observations_overflow(self):
        h = Histogram(boundaries=(1.0, 5.0))
        for _ in range(3):
            h.observe(100.0)
        assert h.quantile(0.5) == float("inf")
        assert h.quantile(1.0) == float("inf")

    def test_quantile_rejects_out_of_range(self):
        h = Histogram(boundaries=(1.0,))
        with pytest.raises(StreamLoaderError):
            h.quantile(-0.1)
        with pytest.raises(StreamLoaderError):
            h.quantile(1.1)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self, reg):
        a = reg.counter("tuples_total", node="n0")
        b = reg.counter("tuples_total", node="n0")
        assert a is b
        other = reg.counter("tuples_total", node="n1")
        assert other is not a

    def test_label_order_is_irrelevant(self, reg):
        a = reg.gauge("util", node="n0", op="f")
        b = reg.gauge("util", op="f", node="n0")
        assert a is b

    def test_kind_conflict_is_an_error(self, reg):
        reg.counter("x")
        with pytest.raises(StreamLoaderError):
            reg.gauge("x")

    def test_exposition_format(self, reg):
        reg.counter("tuples_total", "tuples seen", node="n0").inc(3)
        reg.gauge("util").set(0.5)
        text = reg.expose()
        assert "# HELP tuples_total tuples seen" in text
        assert "# TYPE tuples_total counter" in text
        assert 'tuples_total{node="n0"} 3' in text
        assert "util 0.5" in text

    def test_exposition_histogram_le_buckets(self, reg):
        h = reg.histogram("lat", buckets=(1.0, 5.0), node="n0")
        h.observe(0.5)
        h.observe(90.0)
        text = reg.expose()
        assert 'lat_bucket{le="1",node="n0"} 1' in text
        assert 'lat_bucket{le="5",node="n0"} 1' in text
        assert 'lat_bucket{le="+Inf",node="n0"} 2' in text
        assert 'lat_sum{node="n0"} 90.5' in text
        assert 'lat_count{node="n0"} 2' in text

    def test_label_values_escaped_in_exposition(self, reg):
        """Regression: backslashes, quotes, and newlines inside label
        values must be escaped or the exposition text is unparseable."""
        reg.counter("routes_total", route='a"b\\c\nd').inc()
        text = reg.expose()
        assert 'routes_total{route="a\\"b\\\\c\\nd"} 1' in text
        assert "\nd" not in text.replace("\\nd", "")  # no raw newline leaks

    def test_expose_sorted_regardless_of_registration_order(self):
        first = MetricsRegistry()
        first.counter("zz_total", node="n1").inc()
        first.counter("zz_total", node="n0").inc()
        first.gauge("aa_util").set(1.0)
        second = MetricsRegistry()
        second.gauge("aa_util").set(1.0)
        second.counter("zz_total", node="n0").inc()
        second.counter("zz_total", node="n1").inc()
        assert first.expose() == second.expose()
        assert first.to_json() == second.to_json()
        assert list(first.snapshot()) == sorted(first.snapshot())

    def test_values_view(self, reg):
        reg.gauge("depth", process="b").set(2.0)
        reg.gauge("depth", process="a").set(1.0)
        reg.histogram("h").observe(0.5)
        assert reg.values("depth") == [({"process": "a"}, 1.0),
                                       ({"process": "b"}, 2.0)]
        assert reg.values("h") == []  # histograms have no scalar view
        assert reg.values("missing") == []

    def test_snapshot_roundtrips_through_json(self, reg):
        reg.counter("c", node="n0").inc()
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = json.loads(reg.to_json())
        assert snap["c"]["type"] == "counter"
        assert snap["c"]["series"][0] == {"labels": {"node": "n0"},
                                          "value": 1.0}
        assert snap["h"]["series"][0]["count"] == 1

    def test_reading_reads_its_owner_at_scrape_time(self, reg):
        owner = {"count": 0}
        reading = reg.reader("seen_total", "counter", lambda: owner["count"],
                             "tuples seen", node="n0")
        owner["count"] = 229
        assert 'seen_total{node="n0"} 229\n' in reg.expose()
        assert reg.snapshot()["seen_total"]["series"][0]["value"] == 229.0
        assert reg.values("seen_total") == [({"node": "n0"}, 229.0)]
        assert reg.get("seen_total", node="n0") is reading
        assert repr(reading.value) == "229.0"
        with pytest.raises(StreamLoaderError):
            reg.reader("seen_total", "gauge", lambda: 0)
        with pytest.raises(StreamLoaderError):
            reg.reader("other", "histogram", lambda: 0)
