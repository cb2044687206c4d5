"""Unit tests: on_batch dispatch for the operators no oracle drives.

The kernel, flow and flush oracles and the aggregate ingest property hold
that a batch reports what N per-tuple calls would; what stays here is the
port check, the trigger's window and the sinks.
"""

import pytest

from repro.errors import StreamLoaderError
from repro.streams.filter import FilterOperator
from repro.streams.sink import CallbackSink, ListSink
from repro.streams.trigger import TriggerOnOperator


def batch_of(make_tuple, temps, start=0):
    return [make_tuple(seq=start + i, temperature=t, time=float(start + i))
            for i, t in enumerate(temps)]


class TestOnBatchContract:
    def test_bad_port_raises(self, make_tuple):
        with pytest.raises(StreamLoaderError):
            FilterOperator("temperature > 0").on_batch(
                batch_of(make_tuple, [1.0]), port=1)


class TestStatefulFastPaths:
    def test_trigger_window_fills_from_batch(self, make_tuple):
        op = TriggerOnOperator(interval=300.0,
                               condition="avg_temperature > 25",
                               targets=("s1",), window=3600.0)
        op.on_batch(batch_of(make_tuple, [30.0, 31.0, 32.0]))
        assert len(op.cache) == 3
        op.on_timer(300.0)
        # The window statistics saw the batched tuples: the gate opened.
        assert op._last_command is True


class TestSinks:
    def test_list_sink_extends(self, make_tuple):
        sink = ListSink()
        batch = batch_of(make_tuple, [1.0, 2.0, 3.0])
        sink.on_batch(batch)
        assert sink.received == batch

    def test_callback_sink_stays_per_tuple(self, make_tuple):
        seen = []
        sink = CallbackSink(seen.append)
        batch = batch_of(make_tuple, [1.0, 2.0])
        sink.on_batch(batch)
        assert seen == batch
