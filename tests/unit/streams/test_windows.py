"""Unit tests for tuple caches."""

import pytest

from repro.errors import StreamLoaderError
from repro.streams.windows import TupleCache


@pytest.fixture
def cache():
    return TupleCache()


class TestBasics:
    def test_add_and_len(self, make_tuple, cache):
        cache.add(make_tuple(0))
        cache.add(make_tuple(1))
        assert len(cache) == 2
        assert bool(cache)

    def test_drain_empties(self, make_tuple, cache):
        for i in range(5):
            cache.add(make_tuple(i))
        drained = cache.drain()
        assert len(drained) == 5
        assert len(cache) == 0
        assert [t.seq for t in drained] == [0, 1, 2, 3, 4]

    def test_snapshot_does_not_evict(self, make_tuple, cache):
        cache.add(make_tuple(0))
        assert len(cache.snapshot()) == 1
        assert len(cache) == 1

    def test_invalid_capacity_raises(self):
        with pytest.raises(StreamLoaderError):
            TupleCache(max_tuples=0)


class TestBounds:
    def test_eviction_when_full(self, make_tuple):
        cache = TupleCache(max_tuples=3)
        for i in range(5):
            cache.add(make_tuple(i))
        assert len(cache) == 3
        assert cache.evicted == 2
        assert [t.seq for t in cache] == [2, 3, 4]  # oldest evicted


class TestExtend:
    @staticmethod
    def _caches(max_tuples):
        logs = ([], [])
        return [
            TupleCache(max_tuples=max_tuples, on_evict=log.append)
            for log in logs
        ], logs

    def test_extend_with_room_equals_repeated_add(self, make_tuple):
        (extended, added), (evicted_e, evicted_a) = self._caches(10)
        resident = [make_tuple(i) for i in range(4)]
        run = [make_tuple(i) for i in range(4, 10)]  # fills it exactly
        for cache in (extended, added):
            cache.extend(resident[:2])
            for tuple_ in resident[2:]:
                cache.add(tuple_)
        extended.extend(run)
        for tuple_ in run:
            added.add(tuple_)
        assert list(extended) == list(added) == resident + run
        assert extended.room == added.room == 0
        assert extended.evicted == added.evicted == 0
        assert evicted_e == evicted_a == []

    @pytest.mark.parametrize("run_length", [3, 4, 9])
    def test_extend_past_the_bound_evicts_like_repeated_add(
        self, make_tuple, run_length
    ):
        # 9 > max_tuples: the run evicts its own head.
        (extended, added), (evicted_e, evicted_a) = self._caches(4)
        resident = [make_tuple(i) for i in range(2)]
        run = [make_tuple(i) for i in range(2, 2 + run_length)]
        extended.extend(resident)
        added.extend(resident)
        extended.extend(run)
        for tuple_ in run:
            added.add(tuple_)
        assert list(extended) == list(added) == (resident + run)[-4:]
        assert evicted_e == evicted_a == (resident + run)[:-4]
        assert extended.evicted == added.evicted == run_length - 2

    def test_overflowing_extend_interleaves_evictions_with_appends(
        self, make_tuple
    ):
        # on_evict sees the cache exactly as repeated add shows it: the
        # evicted tuple gone, the member that displaced it not yet in.
        seen = []
        cache = TupleCache(
            max_tuples=2, on_evict=lambda t: seen.append((t.seq, len(cache))))
        cache.extend([make_tuple(i) for i in range(2)])
        cache.extend([make_tuple(i) for i in range(2, 5)])
        assert seen == [(0, 1), (1, 1), (2, 1)]


class TestPrune:
    def test_prune_by_time(self, make_tuple, cache):
        for i in range(10):
            cache.add(make_tuple(i, time=float(i * 10)))
        pruned = cache.prune(before=45.0)
        assert pruned == 5
        assert [t.stamp.time for t in cache] == [50.0, 60.0, 70.0, 80.0, 90.0]

    def test_prune_nothing(self, make_tuple, cache):
        cache.add(make_tuple(0, time=100.0))
        assert cache.prune(before=50.0) == 0
        assert len(cache) == 1

    def test_prune_everything(self, make_tuple, cache):
        for i in range(3):
            cache.add(make_tuple(i, time=float(i)))
        assert cache.prune(before=1e9) == 3
        assert not cache


class TestEvictionBoundaries:
    """Edge cases of the eviction contract the shard adapters lean on."""

    def test_prune_boundary_is_exclusive(self, make_tuple, cache):
        """``prune(before)`` evicts *strictly* earlier stamps: a tuple at
        exactly the window edge belongs to the retained window."""
        cache.add(make_tuple(0, time=10.0))
        cache.add(make_tuple(1, time=20.0))
        assert cache.prune(before=20.0) == 1
        assert [t.seq for t in cache] == [1]

    def test_prune_stops_at_first_retained_straggler(self, make_tuple, cache):
        """The scan stops at the first retained head: a straggler parked
        *behind* a fresh tuple survives (documented fresh-data bias)."""
        cache.add(make_tuple(0, time=100.0))
        cache.add(make_tuple(1, time=5.0))   # straggler, out of order
        assert cache.prune(before=50.0) == 0
        assert len(cache) == 2

    def test_prune_does_not_count_as_overflow_eviction(
            self, make_tuple, cache):
        """``evicted`` tracks memory-bound overflow only; pruning is a
        window operation and must not inflate the monitor's counter."""
        for i in range(4):
            cache.add(make_tuple(i, time=float(i)))
        assert cache.prune(before=4.0) == 4
        assert cache.evicted == 0

    def test_on_evict_fires_for_overflow_and_prune_only(self, make_tuple):
        evicted = []
        cache = TupleCache(max_tuples=2, on_evict=lambda t: evicted.append(t.seq))
        for i in range(3):
            cache.add(make_tuple(i, time=float(i)))   # overflow evicts 0
        assert evicted == [0]
        cache.prune(before=2.0)                       # prune evicts 1
        assert evicted == [0, 1]
        cache.add(make_tuple(3, time=3.0))
        cache.drain()                                 # bulk ops stay silent
        cache.add(make_tuple(4, time=4.0))
        cache.clear()
        cache.restore([make_tuple(5, time=5.0)])
        assert evicted == [0, 1]

    def test_restore_truncates_to_newest_capacity(self, make_tuple):
        cache = TupleCache(max_tuples=2)
        cache.restore([make_tuple(i) for i in range(5)], evicted=7)
        assert [t.seq for t in cache] == [3, 4]
        assert cache.evicted == 7

    def test_exactly_full_does_not_evict(self, make_tuple):
        cache = TupleCache(max_tuples=3)
        for i in range(3):
            cache.add(make_tuple(i))
        assert cache.evicted == 0
        assert len(cache) == 3
