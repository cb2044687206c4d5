"""Unit tests for the latency/watermark/backpressure plane."""

import pytest

from repro.obs import Observability
from repro.obs.latency import LatencyPlane, ProcessProbe
from repro.obs.metrics import MetricsRegistry
from repro.streams.tuple import TupleBatch


@pytest.fixture
def plane() -> LatencyPlane:
    return LatencyPlane(MetricsRegistry())


class TestProcessProbe:
    def test_non_blocking_commits_max_stamp(self, plane):
        probe = plane.register_process("f", blocking=False, sink=False)
        probe.note(10.0, 8.0)
        probe.note(11.0, 6.0)  # out-of-order stamp must not regress
        assert probe.committed == 8.0
        assert probe.buffered == 0

    def test_blocking_buffers_until_flush(self, plane):
        probe = plane.register_process("agg", blocking=True, sink=False)
        probe.note(10.0, 8.0)
        probe.note(11.0, 9.0)
        assert probe.committed == float("-inf")
        assert probe.buffered == 2
        probe.commit_flush(300.0, [])
        assert probe.committed == 300.0
        assert probe.buffered == 0
        assert probe.per_epoch == 2

    def test_saturation_ratio(self, plane):
        probe = plane.register_process("agg", blocking=True, sink=False)
        assert probe.saturation() == 0.0  # no epoch yet
        for _ in range(4):
            probe.note(1.0, 0.5)
        probe.commit_flush(300.0, [])
        assert probe.saturation() == 0.0  # just flushed
        probe.note(301.0, 300.5)
        probe.note(302.0, 301.5)
        assert probe.saturation() == pytest.approx(0.5)

    def test_non_blocking_saturation_is_zero(self, plane):
        probe = plane.register_process("f", blocking=False, sink=False)
        probe.note(1.0, 0.0)
        assert probe.saturation() == 0.0

    def test_sink_probe_feeds_e2e_histogram(self, plane):
        probe = plane.register_process("out", blocking=False, sink=True)
        probe.note(10.0, 7.5)
        assert plane.e2e.count == 1
        assert plane.e2e.sum == pytest.approx(2.5)

    def test_non_sink_probe_does_not_feed_e2e(self, plane):
        probe = plane.register_process("f", blocking=False, sink=False)
        probe.note(10.0, 7.5)
        assert plane.e2e.count == 0

    def test_note_batch_commits_like_repeated_note(self, plane, make_tuple):
        # Watermark state (running maxima) must be bit-identical to noting
        # every tuple; that is what the alert-determinism property relies
        # on across batch sizes.
        a = plane.register_process("a", blocking=False, sink=False)
        b = plane.register_process("b", blocking=False, sink=False)
        tuples = [make_tuple(i, time=float(i)) for i in range(5)]
        a.note(10.0, *TupleBatch.of(tuples).stamp_span(), len(tuples))
        for tuple_ in tuples:
            b.note(10.0, tuple_.stamp.time)
        assert a.committed == b.committed == 4.0
        assert a.pending == b.pending == 4.0

    def test_note_batch_amortizes_histogram_observes(self, plane, make_tuple):
        # The batched path records one observe per batch — the batch's
        # *worst* stage latency (oldest stamp) — instead of one per tuple
        # (BENCH_8 measured the per-tuple probe at ~60% receive overhead).
        probe = plane.register_process("a", blocking=False, sink=True)
        tuples = [make_tuple(i, time=float(i)) for i in range(5)]
        probe.note(10.0, *TupleBatch.of(tuples).stamp_span(), len(tuples))
        assert probe.hist.count == 1
        assert probe.hist.sum == pytest.approx(10.0)  # now - oldest stamp
        assert plane.e2e.count == 1
        assert plane.e2e.sum == pytest.approx(10.0)

    def test_note_batch_buffers_whole_batch_when_blocking(
        self, plane, make_tuple
    ):
        probe = plane.register_process("agg", blocking=True, sink=False)
        probe.note(10.0, 0.0, 4.0, 5)  # five tuples stamped 0.0 .. 4.0
        assert probe.buffered == 5
        assert probe.committed == float("-inf")  # commits only at flush

    def test_note_batch_on_empty_batch_is_a_no_op(self, plane):
        probe = plane.register_process("a", blocking=False, sink=False)
        probe.note(10.0, float("inf"), float("-inf"), 0)
        assert probe.hist.count == 0
        assert probe.pending == float("-inf")

    def test_flush_histogram_records_emitted_staleness(self, plane, make_tuple):
        probe = plane.register_process("agg", blocking=True, sink=False)
        probe.commit_flush(300.0, [make_tuple(0, time=100.0)])
        assert probe.flush_hist.count == 1
        assert probe.flush_hist.sum == pytest.approx(200.0)


class TestWatermarks:
    def test_cold_process_has_no_watermark(self, plane):
        plane.register_process("f", blocking=False, sink=False)
        assert plane.watermark("f") is None
        assert plane.watermark_lag("f") is None

    def test_watermark_is_min_over_upstream_chain(self, plane):
        up = plane.register_process("up", blocking=False, sink=False)
        down = plane.register_process("down", blocking=False, sink=True)
        plane.set_upstreams("down", ["up"])
        up.note(10.0, 9.0)
        down.note(11.0, 10.5)
        # down has seen 10.5 but up has only released 9.0.
        assert plane.watermark("up") == 9.0
        assert plane.watermark("down") == 9.0

    def test_lag_measured_from_source_high(self, plane):
        probe = plane.register_process("f", blocking=False, sink=False)
        probe.note(10.0, 9.0)
        assert plane.watermark_lag("f") is None  # sources still cold
        plane.note_publish("s", 20.0, 15.0)
        assert plane.watermark_lag("f") == pytest.approx(6.0)
        assert plane.max_watermark_lag() == pytest.approx(6.0)

    def test_lag_clamped_at_zero(self, plane):
        probe = plane.register_process("f", blocking=False, sink=False)
        plane.note_publish("s", 5.0, 4.0)
        probe.note(10.0, 9.0)  # ahead of the recorded source high
        assert plane.watermark_lag("f") == 0.0

    def test_unknown_and_self_upstreams_are_dropped(self, plane):
        probe = plane.register_process("f", blocking=False, sink=False)
        plane.set_upstreams("f", ["f", "ghost"])
        assert probe.upstreams == ()

    def test_memo_shared_across_lookups(self, plane):
        up = plane.register_process("up", blocking=False, sink=False)
        down = plane.register_process("down", blocking=False, sink=False)
        plane.set_upstreams("down", ["up"])
        up.note(10.0, 7.0)
        down.note(11.0, 9.0)
        memo: dict = {}
        assert plane.watermark("down", memo) == 7.0
        assert memo["up"] == 7.0


class TestBackpressureGauges:
    def test_route_inflight_counts_and_clamps(self, plane):
        plane.link_send("a", "b")
        plane.link_send("a", "b")
        plane.link_done("a", "b")
        assert plane._route_inflight[("a", "b")] == 1
        plane.link_done("a", "b")
        plane.link_done("a", "b")  # spurious completion must not go negative
        assert plane._route_inflight[("a", "b")] == 0

    def test_refresh_publishes_gauges(self, plane):
        probe = plane.register_process("agg", blocking=True, sink=False)
        plane.note_publish("s", 10.0, 9.0)
        probe.note(10.0, 9.0)
        probe.commit_flush(300.0, [])
        probe.note(301.0, 300.5)
        plane.link_send("a", "b")
        plane.refresh()
        metrics = plane.metrics
        assert metrics.get("queue_depth", process="agg").value == 1
        assert metrics.get("saturation", process="agg").value == 1.0
        assert metrics.get("watermark_lag_seconds", process="agg") is not None
        assert metrics.get("network_route_inflight", route="a->b").value == 1
        assert metrics.get("source_watermark").value == 9.0


class TestLogicalHealth:
    def test_shard_suffixes_group_to_one_service(self, plane):
        for i in range(2):
            probe = plane.register_process(f"agg#{i}", blocking=True, sink=False)
            probe.note(10.0, 8.0 + i)
            probe.commit_flush(300.0, [])
        merge = plane.register_process("agg#merge", blocking=False, sink=False)
        merge.note(300.0, 299.0)
        plane.note_publish("s", 310.0, 305.0)
        health = plane.logical_health()
        assert list(health) == ["agg"]
        assert health["agg"]["watermark"] == 299.0  # min across the group
        assert health["agg"]["lag"] == pytest.approx(6.0)

    def test_queue_depth_summed_across_shards(self, plane):
        for i in range(3):
            probe = plane.register_process(f"agg#{i}", blocking=True, sink=False)
            probe.note(1.0, 0.5)
        health = plane.logical_health()
        assert health["agg"]["queue_depth"] == 3

    def test_cold_member_makes_group_cold(self, plane):
        hot = plane.register_process("agg#0", blocking=False, sink=False)
        plane.register_process("agg#1", blocking=False, sink=False)
        hot.note(10.0, 9.0)
        assert plane.logical_health()["agg"]["watermark"] is None


class TestObservabilityBundle:
    def test_plane_absent_by_default(self):
        obs = Observability(sampling=0.0)
        assert obs.latency is None

    def test_ensure_latency_is_idempotent(self):
        obs = Observability(sampling=0.0)
        plane = obs.ensure_latency()
        assert obs.ensure_latency() is plane
        assert isinstance(plane, LatencyPlane)

    def test_register_process_is_idempotent(self, plane):
        first = plane.register_process("f", blocking=False, sink=False)
        again = plane.register_process("f", blocking=True, sink=True)
        assert again is first
        assert isinstance(first, ProcessProbe)
