"""Unit tests for the rebalance control loop's pieces in isolation.

The policy is a pure function of load vectors plus two counters, so the
stability guarantees the module docstring makes — hysteresis prevents
oscillation, cooldown bounds action frequency, a persistent step-change
produces exactly one action — are pinned here with synthetic loads, no
simulator required.  The monitor and executor get focused coverage for
their arithmetic (sliding windows, boundary math) on the same terms.
"""

import math

import pytest

from repro.errors import StreamLoaderError
from repro.network.netsim import NetworkSimulator
from repro.network.topology import Topology
from repro.runtime.rebalance import (
    BOUNDARY_EPSILON,
    RebalanceConfig,
    RebalanceDecision,
    RebalanceExecutor,
    RebalancePolicy,
    ShardLoadMonitor,
    ShardRebalancer,
)

HOT = ("st-hot",)
WARM = ("st-warm",)

#: hot_keys vector for a donor whose load is mostly one movable key.
KEYS = [(HOT, 60), (WARM, 20)]


def _policy(**overrides) -> RebalancePolicy:
    defaults = dict(imbalance_ratio=1.5, hysteresis=2, cooldown_epochs=4)
    defaults.update(overrides)
    return RebalancePolicy(RebalanceConfig(**defaults))


class TestPolicyHysteresis:
    def test_single_skewed_epoch_never_acts(self):
        policy = _policy(hysteresis=2)
        assert policy.observe([80, 10, 10, 10], 0, KEYS) is None

    def test_persistent_skew_acts_after_hysteresis(self):
        policy = _policy(hysteresis=3)
        decisions = [policy.observe([80, 10, 10, 10], 0, KEYS)
                     for _ in range(3)]
        assert decisions[:2] == [None, None]
        assert decisions[2] is not None
        assert decisions[2].kind == "migrate"

    def test_flickering_skew_never_acts(self):
        """Borderline skew alternating above/below the ratio resets the
        streak every balanced epoch: the loop cannot oscillate."""
        policy = _policy(hysteresis=2)
        skewed, balanced = [80, 10, 10, 10], [25, 25, 25, 25]
        for _ in range(20):
            assert policy.observe(skewed, 0, KEYS) is None
            assert policy.observe(balanced, 0, KEYS) is None

    def test_balanced_loads_reset_streak(self):
        policy = _policy(hysteresis=2)
        assert policy.observe([80, 10, 10, 10], 0, KEYS) is None
        assert policy.observe([25, 25, 25, 25], 0, KEYS) is None
        # Streak restarted: one more skewed epoch is not enough.
        assert policy.observe([80, 10, 10, 10], 0, KEYS) is None


class TestPolicyCooldown:
    def test_cooldown_bounds_action_frequency(self):
        """Over E epochs of permanent skew, at most
        ceil(E / (hysteresis + cooldown)) actions fire."""
        policy = _policy(hysteresis=2, cooldown_epochs=4)
        epochs = 30
        decisions = [policy.observe([80, 10, 10, 10], 0, KEYS)
                     for _ in range(epochs)]
        acted = [d for d in decisions if d is not None]
        assert len(acted) <= math.ceil(epochs / (2 + 4))
        # And the quiet gaps between actions are at least the cooldown.
        acted_at = [i for i, d in enumerate(decisions) if d is not None]
        for earlier, later in zip(acted_at, acted_at[1:]):
            assert later - earlier > 4

    def test_cooldown_ignores_even_extreme_skew(self):
        policy = _policy(hysteresis=1, cooldown_epochs=3)
        assert policy.observe([80, 10, 10, 10], 0, KEYS) is not None
        for _ in range(3):
            assert policy.observe([1000, 0, 0, 0], 0, KEYS) is None


class TestPolicyStepChange:
    def test_step_change_triggers_exactly_one_rebalance(self):
        """Skew appears, the action fixes it, loads go balanced: exactly
        one decision over the whole trace."""
        policy = _policy(hysteresis=2, cooldown_epochs=4)
        trace = [[25, 25, 25, 25]] * 5 + [[80, 10, 10, 10]] * 2 \
            + [[25, 25, 25, 25]] * 20
        decisions = [policy.observe(loads, 0, KEYS) for loads in trace]
        acted = [d for d in decisions if d is not None]
        assert len(acted) == 1
        assert acted[0].kind == "migrate"
        assert acted[0].donor == 0
        assert acted[0].recipient in (1, 2, 3)

    def test_zero_traffic_is_balanced(self):
        policy = _policy(hysteresis=1)
        assert policy.observe([0, 0, 0, 0], 0, KEYS) is None
        assert policy.observe([], 0, KEYS) is None

    def test_single_shard_never_acts(self):
        policy = _policy(hysteresis=1)
        assert policy.observe([100], 0, KEYS) is None


class TestPolicyDecisions:
    def test_movable_key_migrates_to_lightest_shard(self):
        policy = _policy(hysteresis=1)
        decision = policy.observe([80, 30, 10, 20], 0, KEYS)
        assert decision == RebalanceDecision(
            kind="migrate", values=HOT, donor=0, recipient=2,
            reason=decision.reason,
        )

    def test_indivisible_hot_key_splits_when_allowed(self):
        """A key that *is* the donor's load cannot migrate (it would just
        move the hot spot); with splitting enabled it sprays instead."""
        policy = _policy(hysteresis=1, split_hot_keys=True)
        decision = policy.observe([80, 10, 10, 10], 0, [(HOT, 78)],
                                  combine_safe=True)
        assert decision is not None
        assert decision.kind == "split"
        assert decision.values == HOT
        assert decision.replicas == (0, 1, 2, 3)

    def test_split_replicas_capped_by_config_and_count(self):
        policy = _policy(hysteresis=1, split_hot_keys=True, split_replicas=2)
        decision = policy.observe([80, 10, 10, 10], 0, [(HOT, 78)],
                                  combine_safe=True)
        assert decision.replicas == (0, 1)

    def test_unsafe_operator_never_splits(self):
        """Without combine safety (joins) the indivisible key stays put."""
        policy = _policy(hysteresis=1, split_hot_keys=True)
        assert policy.observe([80, 10, 10, 10], 0, [(HOT, 78)],
                              combine_safe=False) is None

    def test_split_requires_the_flag(self):
        policy = _policy(hysteresis=1, split_hot_keys=False)
        assert policy.observe([80, 10, 10, 10], 0, [(HOT, 78)],
                              combine_safe=True) is None

    def test_already_split_keys_are_skipped(self):
        policy = _policy(hysteresis=1, split_hot_keys=True)
        assert policy.observe([80, 10, 10, 10], 0, [(HOT, 78)],
                              combine_safe=True, already_split={HOT}) is None

    def test_no_key_data_no_action(self):
        policy = _policy(hysteresis=1)
        assert policy.observe([80, 10, 10, 10], 0, []) is None


class _Stats:
    def __init__(self):
        self.tuples_in = 0


class _Adapter:
    def __init__(self):
        self.stats = _Stats()
        self.key_loads = {}


class _Member:
    def __init__(self):
        self.operator = _Adapter()


class _Group:
    def __init__(self, count):
        self.members = [_Member() for _ in range(count)]
        self.merge = None


class TestLoadMonitor:
    def test_sample_records_deltas_not_totals(self):
        group = _Group(2)
        monitor = ShardLoadMonitor(group, window_epochs=4)
        group.members[0].operator.stats.tuples_in = 10
        assert monitor.sample() == [10, 0]
        group.members[0].operator.stats.tuples_in = 15
        group.members[1].operator.stats.tuples_in = 7
        assert monitor.sample() == [5, 7]

    def test_window_sums_and_evicts(self):
        group = _Group(1)
        monitor = ShardLoadMonitor(group, window_epochs=2)
        for total in (10, 30, 60):   # deltas 10, 20, 30
            group.members[0].operator.stats.tuples_in = total
            monitor.sample()
        # Window of 2: the first delta (10) has been evicted.
        assert monitor.epoch_loads() == [50]

    def test_imbalance_ratio(self):
        group = _Group(4)
        monitor = ShardLoadMonitor(group, window_epochs=1)
        for member, total in zip(group.members, (80, 10, 10, 10)):
            member.operator.stats.tuples_in = total
        monitor.sample()
        assert monitor.imbalance() == pytest.approx(80 * 4 / 110)

    def test_idle_group_reads_balanced(self):
        monitor = ShardLoadMonitor(_Group(3), window_epochs=2)
        monitor.sample()
        assert monitor.imbalance() == 1.0

    def test_hot_keys_sorted_with_deterministic_ties(self):
        group = _Group(1)
        group.members[0].operator.key_loads = {("b",): 5, ("a",): 5, ("c",): 9}
        monitor = ShardLoadMonitor(group, window_epochs=1)
        assert monitor.hot_keys(0) == [(("c",), 9), (("a",), 5), (("b",), 5)]

    def test_window_must_cover_an_epoch(self):
        with pytest.raises(StreamLoaderError, match="window"):
            ShardLoadMonitor(_Group(1), window_epochs=0)


class TestLagProvider:
    def test_zeros_without_provider(self):
        monitor = ShardLoadMonitor(_Group(3), window_epochs=2)
        assert monitor.shard_lags() == [0.0, 0.0, 0.0]

    def test_provider_values_passed_through(self):
        monitor = ShardLoadMonitor(_Group(2), window_epochs=2,
                                   lag_provider=lambda: [3, 7.5])
        assert monitor.shard_lags() == [3.0, 7.5]

    def test_length_mismatch_is_an_error(self):
        monitor = ShardLoadMonitor(_Group(2), window_epochs=2,
                                   lag_provider=lambda: [1.0])
        with pytest.raises(StreamLoaderError):
            monitor.shard_lags()

    def test_lag_breaks_donor_load_ties(self):
        # The rebalancer's donor pick: max by (load, lag, -index).  With
        # equal loads, the lagging shard must donate; without a provider
        # the lowest index wins (the pre-plane behaviour).
        loads = [50, 50, 10]
        lags = [0.0, 120.0, 0.0]
        donor = max(range(len(loads)), key=lambda i: (loads[i], lags[i], -i))
        assert donor == 1
        no_lags = [0.0, 0.0, 0.0]
        donor = max(range(len(loads)),
                    key=lambda i: (loads[i], no_lags[i], -i))
        assert donor == 0

    def test_decision_names_the_shard_its_hot_keys_came_from(self):
        # Equal loads, shard 1 lags: shard 1 donates, so the key moved
        # must be one shard 1 holds, and the decision must say shard 1.
        group = _Group(3)
        for member, total in zip(group.members, (10, 10, 0)):
            member.operator.stats.tuples_in = total
        group.members[1].operator.key_loads = {("x",): 6}
        rebalancer = ShardRebalancer(
            group, None, NetworkSimulator(topology=Topology.star(leaf_count=1)),
            "svc", 60.0, config=RebalanceConfig(hysteresis=1))
        rebalancer.load_monitor.lag_provider = lambda: [0.0, 5.0, 0.0]
        decisions = []
        rebalancer.executor.schedule = decisions.append
        rebalancer.tick()
        assert decisions == [RebalanceDecision(
            kind="migrate", values=("x",), donor=1, recipient=2,
            reason=decisions[0].reason)]


class TestBoundaryMath:
    """next_boundary() picks the flush instant strictly after now."""

    def _executor(self, interval):
        netsim = NetworkSimulator(topology=Topology.star(leaf_count=1))
        return RebalanceExecutor(_Group(2), None, netsim, "svc", interval)

    def test_mid_epoch_rounds_up(self):
        assert self._executor(60.0).next_boundary(130.0) == 180.0

    def test_exact_boundary_advances_to_the_next(self):
        assert self._executor(60.0).next_boundary(120.0) == 180.0

    def test_epsilon_offset_is_small_but_nonzero(self):
        assert 0 < BOUNDARY_EPSILON < 1e-3
