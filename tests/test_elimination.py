import math
from dataclasses import dataclass

import numpy as np
import pytest

from rankbandit.core import Instance, optimal_family
from rankbandit.elimination import (
    EliminationRanker,
    confidence_event_holds,
    count_inversions,
    find_permutation,
    inversion_budget,
    inversion_budget_value,
)
from rankbandit.environments import GaussianPayoffs, MultinomialWindows, run_episode
from rankbandit.extensions import DelayModel, bold_wrap


@dataclass(frozen=True)
class ItemStats:
    """Payoff record of one item: cumulative payoff and selection count."""

    reward_sum: float
    count: int

    def mean(self) -> float:
        """Empirical mean payoff; 0 before the first observation."""
        return self.reward_sum / self.count if self.count else 0.0

    def radius(self, t: int, n: int, delta: float) -> float:
        """Confidence radius sqrt(log(4 n t^2 / delta) / count); infinite when unseen."""
        if self.count == 0:
            return math.inf
        return math.sqrt(math.log(4.0 * n * t * t / delta) / self.count)


def find_permutation_oracle(rewards, counts, t, delta, utilities):
    """The elimination pass written out pick by pick, as the rule states it.

    Reference for :func:`find_permutation`, which sweeps the utility order
    once instead of rebuilding the unplaced, contender and blocked sets.
    """
    n = len(counts)
    log_term = math.log(4.0 * n * t * t / delta)
    upper = [0.0] * n
    lower = [0.0] * n
    for i in range(n):
        c = counts[i]
        if c == 0:
            upper[i] = math.inf
            lower[i] = -math.inf
        else:
            mean = rewards[i] / c
            radius = math.sqrt(log_term / c)
            upper[i] = mean + radius
            lower[i] = mean - radius

    remaining = list(range(n))
    out: list[int] = []
    while remaining:
        max_lower = max(lower[j] for j in remaining)
        contenders = [i for i in remaining if upper[i] > max_lower]
        pick = min(contenders, key=lambda i: (counts[i], i))
        blocked = [j for j in remaining if j != pick and utilities[j] < utilities[pick]]
        out.append(pick)
        out.extend(blocked)
        placed = set(blocked)
        placed.add(pick)
        remaining = [j for j in remaining if j not in placed]
    return tuple(out)


class OracleEliminationRanker(EliminationRanker):
    def act(self, t, utilities):
        return find_permutation_oracle(self.rewards, self.counts, t, self.delta, utilities)


class TestItemStats:
    def test_unseen_conventions(self):
        s = ItemStats(reward_sum=0.0, count=0)
        assert s.mean() == 0.0
        assert s.radius(10, 3, 0.1) == math.inf

    def test_radius_value_and_monotonicity(self):
        s = ItemStats(reward_sum=5.0, count=10)
        expected = math.sqrt(math.log(4 * 2 * 100 * 100 / 0.1) / 10)
        assert s.radius(100, 2, 0.1) == pytest.approx(expected, rel=1e-12)
        # strictly decreasing in the count at fixed t
        radii = [ItemStats(0.0, c).radius(100, 2, 0.1) for c in range(1, 6)]
        assert all(a > b for a, b in zip(radii, radii[1:]))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            EliminationRanker(n=0, delta=0.1)
        with pytest.raises(ValueError, match=r"delta must be in \(0, 1\]"):
            EliminationRanker(n=2, delta=0.0)
        with pytest.raises(ValueError, match="delta"):
            EliminationRanker(n=2, delta=1.5)
        assert EliminationRanker(n=2, delta=1.0).delta == 1.0


class TestFindPermutation:
    def test_disjoint_intervals_give_family_order(self):
        # c = sqrt(log(4*3*1e8/0.05)/1000) ~ 0.155: intervals disjoint, the
        # single contender is the top-mean item, lower-utility items follow
        rewards = [500.0, 900.0, 100.0]
        counts = [1000, 1000, 1000]
        order = find_permutation(rewards, counts, 10_000, 0.05, (0.1, 0.9, 0.5))
        assert order == (1, 0, 2)

    def test_all_unseen_places_lowest_index_first(self):
        order = find_permutation([0.0] * 3, [0] * 3, 1, 0.1, (0.5, 0.9, 0.1))
        # pick 0 blocks item 2 (lower utility), then pick 1
        assert order == (0, 2, 1)

    def test_overlapping_intervals_tie_breaks_on_count(self):
        # c ~ 1.17 at t=100: intervals overlap, counts tie, lowest index wins
        order = find_permutation([2.0, 8.0], [10, 10], 100, 0.1, (0.9, 0.1))
        assert order == (0, 1)

    def test_least_played_contender_wins(self):
        order = find_permutation([2.0, 7.2], [10, 9], 100, 0.1, (0.9, 0.1))
        assert order == (1,) + (0,)

    def test_blocked_items_immediately_after_pick(self):
        """Each pick is followed by every remaining lower-utility item before
        any further contender is placed."""
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            utilities = rng.permutation(n).astype(float)
            rewards = rng.normal(0, 1, n).tolist()
            counts = rng.integers(0, 30, n).tolist()
            order = find_permutation(rewards, counts, 50, 0.1, utilities)
            assert sorted(order) == list(range(n))
            pos = 0
            while pos < n:
                pick = order[pos]
                rest = order[pos + 1:]
                blocked = [j for j in rest if utilities[j] < utilities[pick]]
                # blocked items come right after the pick, ascending
                assert list(order[pos + 1: pos + 1 + len(blocked)]) == sorted(blocked)
                pos += 1 + len(blocked)

    def test_deterministic(self):
        rewards, counts, u = [1.0, 2.0, 0.5], [3, 4, 2], (0.2, 0.9, 0.4)
        a = find_permutation(rewards, counts, 7, 0.05, u)
        b = find_permutation(rewards, counts, 7, 0.05, u)
        assert a == b

    def test_matches_oracle_on_random_states(self):
        rng = np.random.default_rng(2024)
        kinds = {"unseen": 0, "tied": 0, "t=1": 0}
        for case in range(3000):
            n = int(rng.integers(1, 61))
            # small count ranges give many ties and unseen items, large ones
            # give narrow, disjoint intervals
            top = int(rng.choice([2, 5, 50, 5000]))
            counts = rng.integers(0, top, n).tolist()
            means = rng.uniform(-1.0, 1.0, n)
            rewards = [float(c * m + rng.normal(0.0, math.sqrt(c) + 1e-12))
                       for c, m in zip(counts, means)]
            t = [1, int(rng.integers(2, 1000)), 10**9][case % 3]
            delta = float(rng.choice([1.0, 0.1, 1e-3]))
            utilities = rng.permutation(n) + rng.uniform(0.0, 0.5)
            if case % 2:
                utilities = tuple(utilities.tolist())
            kinds["unseen"] += 0 in counts
            kinds["tied"] += len(set(counts)) < n
            kinds["t=1"] += t == 1
            got = find_permutation(rewards, counts, t, delta, utilities)
            assert got == find_permutation_oracle(rewards, counts, t, delta, utilities), case
            assert all(type(i) is int for i in got)
        assert min(kinds.values()) >= 500, kinds

    def test_episode_matches_oracle(self):
        n, horizon, seed = 50, 3000, 5
        rng = np.random.default_rng(seed)
        inst = Instance(utilities=rng.permutation(n) + 1.0,
                        means=rng.permutation(np.linspace(0.0, 1.0, n)))
        q = 1.0 / np.arange(1, n + 1)

        def episode(cls):
            policy = bold_wrap(lambda idx: cls(n, 0.01), DelayModel.parse("uniform:0..4"),
                               np.random.default_rng([seed, 1]))
            return run_episode(policy, inst, GaussianPayoffs(inst.means, seed, 0),
                               MultinomialWindows(q / q.sum(), seed, 0), horizon)

        fast, slow = episode(EliminationRanker), episode(OracleEliminationRanker)
        for name in ("selected", "windows", "payoffs", "orders"):
            assert np.array_equal(getattr(fast, name), getattr(slow, name)), name
        # the pass really explores: picks are spread over many items
        assert len(set(fast.selected.tolist())) > 10

    def test_no_contender_raises_like_oracle(self):
        # the radius (about 1.2) is lost in rounding against the mean 1e20
        state = ([1e20], [1], 1, 1.0, (0.5,))
        with pytest.raises(ValueError):
            find_permutation_oracle(*state)
        with pytest.raises(ValueError, match="no contender"):
            find_permutation(*state)


class TestEliminationRanker:
    def test_stats_track_feeds(self):
        r = EliminationRanker(3, 0.1)
        r.feed(1, 2, 0.7)
        r.feed(2, 2, 0.3)
        assert (r.rewards[2], r.counts[2]) == (1.0, 2)
        assert r.counts[0] == 0

    def test_act_matches_function(self):
        r = EliminationRanker(3, 0.1)
        r.feed(1, 0, 1.0)
        u = (0.3, 0.8, 0.1)
        assert r.act(2, u) == find_permutation(r.rewards, r.counts, 2, 0.1, u)

    def test_settles_on_family_member(self):
        inst = Instance(utilities=[1, 2, 3], means=[1.0, 0.6, 0.2])
        fam = optimal_family(inst)
        pol = EliminationRanker(3, 0.05)
        run_episode(pol, inst, GaussianPayoffs(inst.means, 1, 0),
                    MultinomialWindows([0.5, 0.3, 0.2], 1, 0), 4000,
                    record_orders=False)
        assert fam.contains(pol.act(4001, inst.utilities))


class TestInversionBudget:
    def test_frozen_value(self):
        assert inversion_budget(1.0, 10_000, 0.01, 2) == math.ceil(16 * math.log(8e10))
        assert inversion_budget(1.0, 10_000, 0.01, 2) == 402

    def test_doubling_horizon_adds_log4(self):
        base = inversion_budget_value(0.5, 10_000, 0.01, 3)
        doubled = inversion_budget_value(0.5, 20_000, 0.01, 3)
        assert doubled - base == pytest.approx(16 * math.log(4.0) / 0.25, rel=1e-12)

    def test_large_gap_floors_at_one(self):
        assert inversion_budget(100.0, 100, 0.5, 2) == 1

    def test_validation(self):
        for bad in ((0.0, 10, 0.1, 2), (1.0, 0, 0.1, 2), (1.0, 10, 0.0, 2)):
            with pytest.raises(ValueError):
                inversion_budget(*bad)


class TestTraceDiagnostics:
    def test_confidence_event_detects_wild_trace(self):
        means = [0.0, 1.0]
        # a payoff far outside any radius breaks the event immediately
        assert not confidence_event_holds([0], [50.0], means, 0.1)
        assert confidence_event_holds([0, 1], [0.1, 0.9], means, 0.1)

    def test_confidence_event_on_simulated_run(self):
        inst = Instance(utilities=[1, 2, 3], means=[1.0, 0.5, 0.0])
        pol = EliminationRanker(3, 0.05)
        trace = run_episode(pol, inst, GaussianPayoffs(inst.means, 2, 0),
                            MultinomialWindows([0.6, 0.3, 0.1], 2, 0), 2000,
                            record_orders=False)
        assert confidence_event_holds(trace.selected, trace.payoffs,
                                      inst.means, 0.05)

    def test_count_inversions(self):
        inst = Instance(utilities=[1, 2, 3], means=[1.0, 3.0, 2.0])
        fam = optimal_family(inst)  # benchmarks by window: 1, 1, 2
        windows = [1, 1, 2, 3, 3]
        selected = [0, 1, 0, 2, 0]
        inv = count_inversions(windows, selected, fam, inst.means)
        # w=1 picks of 0 invert against benchmark 1; w=3 pick of 0 against 2;
        # picks matching the benchmark or beating it never count
        assert inv == {(1, 0): 2, (2, 0): 1}
