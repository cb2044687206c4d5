"""Unit tests for :class:`repro.streams.fused.FusedOperator`."""

import pytest

from tests.builders import executor_stack, pipeline, sensor_metadata
from repro.dataflow.ops import FilterSpec, TransformSpec
from repro.errors import CheckpointError, StreamLoaderError
from repro.obs import Observability
from repro.streams.aggregate import AggregationOperator
from repro.streams.cull import CullTimeOperator
from repro.streams.filter import FilterOperator
from repro.streams.fused import FUSED_NAME_SEPARATOR, FusedOperator
from repro.streams.join import JoinOperator
from repro.streams.transform import TransformOperator
from repro.streams.tuple import TupleBatch
from repro.streams.virtual import VirtualPropertyOperator


def _chain():
    return FusedOperator([
        FilterOperator("temperature > 24", name="keep"),
        TransformOperator({"double": "temperature * 2"}, name="ident"),
    ])


@pytest.fixture
def fused():
    return _chain()


class TestConstruction:
    def test_name_joins_members(self, fused):
        assert fused.name == f"keep{FUSED_NAME_SEPARATOR}ident"

    def test_cost_is_member_sum(self):
        members = [FilterOperator("temperature > 24"),
                   TransformOperator({"x": "temperature"})]
        fused = FusedOperator(members)
        assert fused.cost_per_tuple == pytest.approx(
            sum(m.cost_per_tuple for m in members))

    def test_rejects_short_chain(self):
        with pytest.raises(StreamLoaderError, match="at least 2"):
            FusedOperator([FilterOperator("temperature > 24")])

    def test_rejects_blocking_member(self):
        with pytest.raises(StreamLoaderError, match="blocking"):
            FusedOperator([
                FilterOperator("temperature > 24"),
                AggregationOperator(interval=60.0,
                                    attributes=["temperature"],
                                    function="AVG"),
            ])

    def test_rejects_multi_input_member(self):
        join = JoinOperator(interval=60.0,
                            predicate="left.station == right.station")
        with pytest.raises(StreamLoaderError):
            FusedOperator([FilterOperator("temperature > 24"), join])

    def test_stays_non_blocking_and_uncheckpointed(self, fused):
        assert not fused.is_blocking
        assert not fused.checkpointable


class TestDataPath:
    def test_tuple_traverses_whole_chain(self, make_tuple, fused):
        out = fused.on_tuple(make_tuple(0, temperature=26.0))
        assert len(out) == 1
        assert out[0]["double"] == 52.0

    def test_drop_short_circuits_downstream(self, make_tuple, fused):
        assert fused.on_tuple(make_tuple(0, temperature=20.0)) == []
        # The transform never saw the dropped tuple.
        assert fused.members[1].stats.tuples_in == 0

    def test_member_stats_counted_individually(self, make_tuple, fused):
        fused.on_tuple(make_tuple(0, temperature=26.0))
        fused.on_tuple(make_tuple(1, temperature=20.0))  # dropped at filter
        head, tail = fused.members
        assert (head.stats.tuples_in, head.stats.tuples_out) == (2, 1)
        assert (tail.stats.tuples_in, tail.stats.tuples_out) == (1, 1)
        # The wrapper's own stats see the chain as a whole.
        assert (fused.stats.tuples_in, fused.stats.tuples_out) == (2, 1)

    def test_error_quarantined_at_the_failing_member(self, make_tuple):
        fused = FusedOperator([
            FilterOperator("humidity >= 0", name="keep"),
            TransformOperator({"x": "1 / temperature"}, name="div"),
        ])
        assert fused.on_tuple(make_tuple(0, temperature=0.0)) == []
        assert fused.members[0].stats.errors == 0
        assert fused.members[1].stats.errors == 1

    def test_batch_path_matches_tuple_path(self, make_tuple):
        tuples = [make_tuple(i, temperature=20.0 + i) for i in range(10)]
        one_by_one = _chain()
        batched = _chain()
        expected = [t for t in tuples for t in one_by_one.on_tuple(t)]
        got = batched.on_batch(list(tuples))
        assert [t.values() for t in got] == [t.values() for t in expected]
        for lhs, rhs in zip(one_by_one.members, batched.members):
            assert lhs.stats.snapshot() == rhs.stats.snapshot()

    def test_stateful_member_keeps_state_across_batches(self, make_tuple):
        fused = FusedOperator([
            FilterOperator("humidity >= 0", name="keep"),
            CullTimeOperator(rate=3, start=0.0, end=1e9, name="cull"),
        ])
        out = []
        for start in (0, 4):
            out.extend(fused.on_batch(
                [make_tuple(i, time=float(i)) for i in range(start, start + 4)]
            ))
        # 8 tuples through a 1-in-3 down-sampler: the counter must span
        # the batch boundary (tuples 3, 6 survive as the 3rd and 6th).
        assert len(out) == 2

    def test_describe_names_members(self, fused):
        text = fused.describe()
        assert text.startswith("fused(")
        assert "->" in text


class TestLifecycle:
    def test_reset_clears_members(self, make_tuple, fused):
        fused.on_tuple(make_tuple(0, temperature=26.0))
        fused.reset()
        assert fused.stats.tuples_in == 0
        assert all(m.stats.tuples_in == 0 for m in fused.members)

    def test_checkpoint_roundtrip(self, make_tuple, fused):
        fused.on_tuple(make_tuple(0, temperature=26.0))
        state = fused.checkpoint()
        clone = _chain()
        clone.restore(state)
        assert clone.stats.snapshot() == fused.stats.snapshot()
        for lhs, rhs in zip(clone.members, fused.members):
            assert lhs.stats.snapshot() == rhs.stats.snapshot()

    def test_restore_rejects_wrong_arity(self):
        state = _chain().checkpoint()
        three = FusedOperator([
            FilterOperator("temperature > 24"),
            TransformOperator({"x": "temperature"}),
            VirtualPropertyOperator("y", "temperature + 1"),
        ])
        with pytest.raises(CheckpointError, match="does not match"):
            three.restore(state)

    def test_restore_rejects_plain_checkpoint(self, fused):
        plain = FilterOperator("temperature > 24").checkpoint()
        with pytest.raises(CheckpointError):
            fused.restore(plain)


class TestMetricsLabels:
    """A fused process is named ``a+b``, but its metrics keep the member
    labels ``prog:a`` / ``prog:b``, never one ``prog:a+b`` series."""

    @staticmethod
    def deployed():
        """The chain deployed with observability: its process, registry."""
        obs = Observability(sampling=0.0)
        _, _, executor = executor_stack(None, sensor_metadata("s"), obs=obs)
        deployment = executor.deploy(pipeline(
            "prog", ("keep", FilterSpec("temperature > 24")),
            ("ident", TransformSpec({"double": "temperature * 2"}))))
        process = deployment.processes[f"keep{FUSED_NAME_SEPARATOR}ident"]
        return process, obs.metrics

    def test_counters_keep_member_labels(self, make_tuple):
        process, metrics = self.deployed()
        process.receive(make_tuple(0, temperature=26.0))
        process.receive(make_tuple(1, temperature=20.0))
        head = metrics.get("process_tuples_total", process="prog:keep")
        tail = metrics.get("process_tuples_total", process="prog:ident")
        assert head is not None and head.value == 2
        assert tail is not None and tail.value == 1

    def test_no_fused_label_is_registered(self, make_tuple):
        process, metrics = self.deployed()
        process.receive(TupleBatch.of([make_tuple(0, temperature=26.0)]))
        fused_label = f"prog:keep{FUSED_NAME_SEPARATOR}ident"
        assert metrics.get("process_tuples_total", process=fused_label) is None
        assert [labels["process"] for labels, _ in metrics.values(
            "process_tuples_total")] == ["prog:ident", "prog:keep", "prog:out"]

    def test_batch_counts_match_tuple_counts(self, make_tuple):
        tuples = [make_tuple(i, temperature=20.0 + i) for i in range(8)]
        for feed in ("tuple", "batch"):
            process, metrics = self.deployed()
            if feed == "tuple":
                for tuple_ in tuples:
                    process.receive(tuple_)
            else:
                process.receive(TupleBatch.of(tuples))
            head = metrics.get("process_tuples_total", process="prog:keep")
            tail = metrics.get("process_tuples_total", process="prog:ident")
            assert head.value == 8
            assert tail.value == sum(
                1 for t in tuples if t["temperature"] > 24)
