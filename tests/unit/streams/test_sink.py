"""Unit tests for sinks."""

from repro.streams.sink import CallbackSink, ListSink
from repro.streams.tuple import TupleBatch


class TestListSink:
    def test_collects_in_order(self, make_tuple):
        sink = ListSink()
        for i in range(3):
            assert sink.on_tuple(make_tuple(i)) == []
        assert [t.seq for t in sink.received] == [0, 1, 2]

    def test_reset_clears(self, make_tuple):
        sink = ListSink()
        sink.on_tuple(make_tuple(0))
        sink.reset()
        assert sink.received == []


class TestCallbackSink:
    def test_invokes_callback(self, make_tuple):
        seen = []
        sink = CallbackSink(seen.append)
        sink.on_tuple(make_tuple(0))
        assert len(seen) == 1

    def test_counts_stats(self, make_tuple):
        sink = CallbackSink(lambda t: None)
        sink.on_tuple(make_tuple(0))
        assert sink.stats.tuples_in == 1
        assert sink.stats.tuples_out == 0

    def test_without_batch_callback_a_batch_unrolls_in_order(self, make_tuple):
        seen = []
        sink = CallbackSink(seen.append)
        batch = TupleBatch.of([make_tuple(i) for i in range(5)])
        assert sink.on_batch(batch) == []
        assert seen == list(batch.tuples)
        assert sink.stats.tuples_in == 5

    def test_batch_callback_receives_the_batch_whole(self, make_tuple):
        lone, whole = [], []
        sink = CallbackSink(lone.append, batch_callback=whole.append)
        batch = TupleBatch.of([make_tuple(i) for i in range(5)])
        sink.on_batch(batch)
        sink.on_batch(list(batch.tuples))  # a bare list is wrapped
        sink.on_tuple(make_tuple(9))
        assert whole == [batch, batch] and whole[0] is batch
        assert type(whole[1]) is TupleBatch
        assert [t.seq for t in lone] == [9]
        assert sink.stats.tuples_in == 11
