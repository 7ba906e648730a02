import hashlib
import math
import re
import types
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import (
    AdaptiveWindows, InformingPolicy, family_contains, recorded_episode,
    utility_sequence_episode,
)
from rankbandit import elimination
from rankbandit.core import Instance, optimal_family
from rankbandit.elimination import (
    EliminationRanker,
    confidence_event_holds,
    count_inversions,
    find_permutation,
    inversion_budget,
    inversion_budget_value,
)
from rankbandit.environments import (
    GaussianPayoffs, MultinomialWindows, ScheduleWindows, run_episode,
)
from rankbandit.extensions import DelayModel, PooledDelayPolicy, QueuedDelayPolicy


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

    Reference for :func:`find_permutation`, which sweeps statistics the
    ranker keeps in utility order instead of rebuilding the unplaced,
    contender and blocked sets.
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


def on_ceiling(rewards, counts, t, delta, ulps):
    """``rewards`` moved so that the first key of the pass (least played, then
    lowest index) has its upper bound ``ulps`` steps from the ceiling
    ``max(means) - sqrt(L / max(counts))``, or None where no reward lands it
    there. Every count must be positive. The most-played other item gets the
    largest mean, so the ceiling is also the largest lower bound."""
    n = len(counts)
    log_term = math.log(4.0 * n * t * t / delta)
    first = min(range(n), key=lambda i: (counts[i], i))
    top = max((i for i in range(n) if i != first), key=counts.__getitem__)
    c = counts[first]
    radius = math.sqrt(log_term / c)
    rewards = list(rewards)
    # a ceiling above the first key's radius keeps its mean positive and
    # below the target, so one ulp of reward moves the bound by at most one
    largest = max(max(r / k for r, k in zip(rewards, counts)),
                  math.sqrt(log_term / counts[top]) + radius)
    rewards[top] = counts[top] * (1.0 + largest)
    ceiling = rewards[top] / counts[top] - math.sqrt(log_term / counts[top])
    target = ceiling
    for _ in range(abs(ulps)):
        target = math.nextafter(target, math.copysign(math.inf, ulps))
    reward = (target - radius) * c
    for _ in range(64):
        upper = reward / c + radius
        if upper == target:
            rewards[first] = reward
            return rewards
        reward = math.nextafter(reward, math.inf if upper < target else -math.inf)
    return None


def certified_count(rewards, counts, t, delta, utilities):
    """How many items a pass places before its first pick that the ceiling
    ``max(means) - sqrt(L / max(counts))`` does not certify: a pick is
    certified when it is unseen or its upper bound beats the ceiling. All
    ``n`` when every pick is."""
    n = len(counts)
    log_term = math.log(4.0 * n * t * t / delta)
    means = [r / c if c else 0.0 for r, c in zip(rewards, counts)]
    most = max(counts)
    ceiling = max(means) - math.sqrt(log_term / most) if most else -math.inf
    remaining = list(range(n))
    while remaining:
        pick = min(remaining, key=lambda i: (counts[i], i))
        c = counts[pick]
        if c and not means[pick] + math.sqrt(log_term / c) > ceiling:
            break
        remaining = [j for j in remaining if utilities[j] > utilities[pick]]
    return n - len(remaining)


def certified_whole(rewards, counts, t, delta):
    """Whether the smallest mean plus the radius at the largest count beats
    the ceiling ``max(means) - sqrt(L / max(counts))``, which certifies every
    pick of the pass at once. True when every item is unseen."""
    most = max(counts)
    if not most:
        return True
    means = [r / c if c else 0.0 for r, c in zip(rewards, counts)]
    radius = math.sqrt(math.log(4.0 * len(counts) * t * t / delta) / most)
    return min(means) + radius > max(means) - radius


def find_permutation_of(rewards, counts, t, delta, utilities):
    """The pass of a fresh ranker that holds these statistics."""
    ranker = EliminationRanker(len(counts), delta)
    ranker.rewards = list(rewards)
    ranker.counts = list(counts)
    return ranker.act(t, utilities)


def _pass_or_error(find, *args):
    """The pass ``find(*args)`` returns, or ``ValueError`` if it raises one."""
    try:
        return find(*args)
    except ValueError:
        return ValueError


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
        order = find_permutation_of(rewards, counts, 10_000, 0.05, (0.1, 0.9, 0.5))
        assert order == (1, 0, 2)

    def test_all_unseen_places_lowest_index_first(self):
        order = find_permutation_of([0.0] * 3, [0] * 3, 1, 0.1, (0.5, 0.9, 0.1))
        # pick 0 blocks item 2 (lower utility), then pick 1
        assert order == (0, 2, 1)

    def test_overlapping_intervals_tie_breaks_on_count(self):
        # c ~ 1.17 at t=100: intervals overlap, counts tie, lowest index wins
        order = find_permutation_of([2.0, 8.0], [10, 10], 100, 0.1, (0.9, 0.1))
        assert order == (0, 1)

    def test_least_played_contender_wins(self):
        order = find_permutation_of([2.0, 7.2], [10, 9], 100, 0.1, (0.9, 0.1))
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
            order = find_permutation_of(rewards, counts, 50, 0.1, utilities)
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
        a = find_permutation_of(rewards, counts, 7, 0.05, u)
        b = find_permutation_of(rewards, counts, 7, 0.05, u)
        assert a == b

    def test_matches_oracle_on_random_states(self):
        rng = np.random.default_rng(2024)
        kinds = {"unseen": 0, "tied": 0, "t=1": 0,
                 "ceiling-1ulp": 0, "ceiling": 0, "ceiling+1ulp": 0}
        whole = {True: 0, False: 0}  # passes certified whole, and the others
        for case in range(4000):
            # every fourth case puts the first key's upper bound on the
            # ceiling that certifies picks, or one ulp either side of it
            boundary = case % 4 == 3
            n = int(rng.integers(2 if boundary else 1, 61))
            # small count ranges give many ties and unseen items, large ones
            # give narrow, disjoint intervals
            top = int(rng.choice([2, 5, 50, 5000]))
            counts = rng.integers(1 if boundary else 0, top, n).tolist()
            means = rng.uniform(-1.0, 1.0, n)
            rewards = [float(c * m + rng.normal(0.0, math.sqrt(c) + 1e-12))
                       for c, m in zip(counts, means)]
            t = [1, int(rng.integers(2, 1000)), 10**9][case % 3]
            delta = float(rng.choice([1.0, 0.1, 1e-3]))
            utilities = rng.permutation(n) + rng.uniform(0.0, 0.5)
            if case % 2:
                utilities = tuple(utilities.tolist())
            if boundary:
                ulps = int(rng.integers(-1, 2))
                rewards = on_ceiling(rewards, counts, t, delta, ulps)
                if rewards is None:
                    continue
                kinds[("ceiling-1ulp", "ceiling", "ceiling+1ulp")[ulps + 1]] += 1
            kinds["unseen"] += 0 in counts
            kinds["tied"] += len(set(counts)) < n
            kinds["t=1"] += t == 1
            got = find_permutation_of(rewards, counts, t, delta, utilities)
            assert got == find_permutation_oracle(rewards, counts, t, delta, utilities), case
            assert all(type(i) is int for i in got)
            certified = certified_whole(rewards, counts, t, delta)
            whole[certified] += 1
            if certified:  # then the ceiling certifies each pick on its own too
                assert certified_count(rewards, counts, t, delta, utilities) == n, case
        assert min(kinds["unseen"], kinds["tied"], kinds["t=1"]) >= 500, kinds
        assert min(kinds["ceiling-1ulp"], kinds["ceiling"], kinds["ceiling+1ulp"]) >= 250, kinds
        assert min(whole.values()) >= 300, whole

    def test_episode_matches_oracle(self):
        n, horizon, seed = 50, 3000, 5
        rng = np.random.default_rng(seed)
        inst = Instance(utilities=rng.permutation(n) + 1.0,
                        means=rng.permutation(np.linspace(0.0, 1.0, n)))
        q = 1.0 / np.arange(1, n + 1)

        def episode(cls):
            policy = PooledDelayPolicy(lambda idx: cls(n, 0.01), DelayModel.parse("uniform:0..4"),
                                       np.random.default_rng([seed, 1]))
            return recorded_episode(policy, inst, GaussianPayoffs(inst.means, seed, 0),
                                    MultinomialWindows(q / q.sum(), seed, 0), horizon)

        (fast, fast_orders), (slow, slow_orders) = (episode(EliminationRanker),
                                                    episode(OracleEliminationRanker))
        assert np.array_equal(fast_orders, slow_orders)
        for name in ("selected", "windows", "payoffs"):
            assert np.array_equal(getattr(fast, name), getattr(slow, name)), name
        # the pass really explores: picks are spread over many items
        assert len(set(fast.selected.tolist())) > 10

    def test_eliminating_episode_matches_oracle(self, monkeypatch):
        # criterion 05's chain under block windows: the intervals separate,
        # so picks stop being certified by the ceiling and the pass
        # finishes exactly
        n, horizon = 5, 20_000
        inst = Instance(utilities=[1.0, 2.0, 3.0, 4.0, 5.0], means=[2.0, 1.5, 1.0, 0.5, 0.0])
        certified = []  # items each pass places before its exact completion
        find = elimination.find_permutation

        def recorded(ranker, t):
            certified.append(certified_count(ranker.rewards, ranker.counts, t,
                                             ranker.delta, inst.utilities))
            return find(ranker, t)

        monkeypatch.setattr(elimination, "find_permutation", recorded)

        def episode(cls):
            return recorded_episode(cls(n, 0.01), inst, GaussianPayoffs(inst.means, 3, 0),
                                    ScheduleWindows.blocks(n, horizon), horizon)

        (fast, fast_orders), (slow, slow_orders) = (episode(EliminationRanker),
                                                    episode(OracleEliminationRanker))
        assert np.array_equal(fast_orders, slow_orders)
        for name in ("selected", "payoffs"):
            assert np.array_equal(getattr(fast, name), getattr(slow, name)), name
        # most passes finish exactly; some are certified throughout, and
        # some certify a pick before the exact completion takes over
        assert len(certified) == horizon
        assert certified.count(0) >= horizon // 2, certified.count(0)
        assert certified.count(n) >= 20, certified.count(n)
        assert sum(0 < c < n for c in certified) >= 5, certified

    def test_certified_pass_computes_one_radius_per_pick(self, monkeypatch):
        # wide radii against equal means certify the whole pass at once, so
        # it walks the order and computes only the ceiling's radius
        n = 50
        counts = [150] * n
        counts[24], counts[49] = 100, 101
        rewards = [c * 0.5 for c in counts]
        state = (10**6, 0.01, np.arange(n) + 1.0)
        radii = []
        shim = types.SimpleNamespace(log=math.log, inf=math.inf,
                                     sqrt=lambda x: radii.append(x) or math.sqrt(x))
        monkeypatch.setattr(elimination, "math", shim)
        order = (24, *range(24), 49, *range(25, 49))
        assert find_permutation_of(rewards, counts, *state) == order
        assert len(radii) == 1  # the ceiling's
        # the ceiling is now about -2e-4, and item 10's mean -0.6 plus the
        # radius about 0.5 is below it: the pass checks each pick, and item
        # 10 is only ever blocked
        rewards[10] = -0.6 * counts[10]
        radii.clear()
        assert find_permutation_of(rewards, counts, *state) == order
        assert find_permutation_oracle(rewards, counts, *state) == order
        assert len(radii) == 3  # the ceiling's, then one per pick

    def test_smallest_mean_on_the_ceiling_certifies_no_pass(self):
        # every count equal, so the first key's radius is the one at the
        # largest count, and every other mean above the first key's: with
        # the first key's upper bound exactly on the ceiling, the smallest
        # mean plus that radius equals the ceiling. The first key is then no
        # contender, so a pass certified whole would place it first
        rng = np.random.default_rng(31)
        landed = 0
        for _ in range(300):
            n = int(rng.integers(2, 30))
            c = int(rng.integers(1, 20))
            t = int(rng.integers(1000, 10**9))
            delta = float(rng.choice([1.0, 0.1, 1e-3]))
            radius = math.sqrt(math.log(4.0 * n * t * t / delta) / c)
            # on_ceiling puts the first key's mean 2 * radius - 1 below the
            # largest of these, so below all of them
            means = rng.uniform(50.0, 50.0 + 0.9 * (2.0 * radius - 1.0), n)
            counts = [c] * n
            rewards = on_ceiling((c * means).tolist(), counts, t, delta, 0)
            if rewards is None:
                continue
            landed += 1
            utilities = rng.permutation(n) + 0.5
            ranker = EliminationRanker(n, delta)
            ranker.rewards, ranker.counts = rewards, list(counts)
            order = ranker.act(t, utilities)
            assert ranker._bottom == rewards[0] / c == min(ranker._means)
            assert ranker._bottom + radius == ranker._top - radius
            assert order == find_permutation_oracle(rewards, counts, t, delta, utilities)
            assert order[0] != 0
        assert landed >= 250, landed

    def test_rejects_trial_index_below_one(self):
        u = (0.3, 0.8, 0.1)
        for t in (0, -3):
            with pytest.raises(ValueError, match=f"t={t}"):
                EliminationRanker(3, 0.1).act(t, u)
        with pytest.raises(ValueError, match="act must run first"):
            find_permutation(EliminationRanker(3, 0.1), 1)

    def test_no_contender_raises_like_oracle(self):
        # the radius (about 1.2) is lost in rounding against the mean 1e20
        state = ([1e20], [1], 1, 1.0, (0.5,))
        with pytest.raises(ValueError):
            find_permutation_oracle(*state)
        with pytest.raises(ValueError, match="no contender"):
            find_permutation_of(*state)


class TestCachedState:
    """The ranker's utility-order state against the oracle, which reads only
    ``rewards`` and ``counts``, over runs that move that state."""

    def test_positions_and_blocked_sets_follow_every_step(self):
        # random interleavings of feed, act and new utilities; after each
        # step the positions are in (count, item) order, each count's block
        # of them starts where _first says, every stored pick and blocked set
        # is the current one, and the kept largest and smallest means are
        # max(_means) and min(_means)
        rng = np.random.default_rng(19)
        kinds = {"unseen": 0, "tied": 0, "rebuilt": 0, "blocked": 0}
        top = {"raised": 0, "lowered": 0}
        bottom = {"raised": 0, "lowered": 0}
        for _ in range(200):
            n = int(rng.integers(1, 61))
            # means far apart separate the intervals within a few feeds, so
            # passes reach the exact completion as well as the certified walk
            means = rng.uniform(-20.0, 20.0, n)
            ranker = EliminationRanker(n, 0.1)
            u = rng.permutation(n) + 0.5
            t = 1
            for _ in range(40):
                step = rng.random()
                if step < 0.5:
                    item = int(rng.integers(0, n))
                    kinds["unseen"] += ranker.counts[item] == 0
                    before = ranker._top, ranker._bottom
                    ranker.feed(t, item, float(rng.normal(means[item], 1.0)))
                    top["raised"] += ranker._top > before[0]
                    top["lowered"] += ranker._top < before[0]
                    bottom["raised"] += ranker._bottom > before[1]
                    bottom["lowered"] += ranker._bottom < before[1]
                else:
                    if step > 0.9:
                        u = rng.permutation(n) + rng.uniform(0.0, 0.5)
                        kinds["rebuilt"] += ranker._utilities is not None
                    assert ranker.act(t, u) == find_permutation_oracle(
                        ranker.rewards, ranker.counts, t, 0.1, u)
                    t += 1
                if ranker._utilities is None:
                    continue
                asc = sorted(range(n), key=u.__getitem__)
                assert ranker._asc == asc
                assert ranker._ks == sorted(range(n),
                                            key=lambda k: (ranker.counts[asc[k]], asc[k]))
                assert ranker._first == [sum(c < x for c in ranker.counts)
                                         for x in range(max(ranker.counts) + 2)]
                for (s, k), placed in ranker._blocked.items():
                    assert placed == [asc[k]] + sorted(asc[s:k]), (s, k)
                assert ranker._top == max(ranker._means)
                assert ranker._bottom == min(ranker._means)
                kinds["blocked"] += len(ranker._blocked)
                kinds["tied"] += len(set(ranker.counts)) < n
        assert min(kinds.values()) >= 300, kinds
        assert min(top.values()) >= 100, top
        assert min(bottom.values()) >= 100, bottom

    def test_nonfinite_payoff_sums_are_rejected(self):
        # a NaN, inf or -inf payoff, and a second 1e308 on one item, whose sum
        # overflows, raise naming the trial, the item and the payoff; every
        # statistic is as it was, and the next pass is the rule's (a mean near
        # 1e308 leaves the rule with no contender, so both passes raise then)
        rng = np.random.default_rng(29)
        raised = passes = 0
        for _ in range(60):
            n = int(rng.integers(1, 9))
            ranker = EliminationRanker(n, 0.1)
            u = rng.permutation(n) + 0.5
            ranker.act(1, u)
            for t in range(1, 30):
                if rng.random() < 0.5:
                    ranker.feed(t, int(rng.integers(0, n)), float(rng.normal(0.0, 1.0)))
                else:
                    ranker.act(t, u)
            for payoff in (math.nan, math.inf, -math.inf, 1e308):
                item = int(rng.integers(0, n))
                if payoff == 1e308:
                    ranker.feed(30, item, payoff)  # a finite sum: the next one overflows
                state = (list(ranker.rewards), list(ranker.counts), list(ranker._means),
                         ranker._top, ranker._bottom, list(ranker._ks))
                with pytest.raises(ValueError, match=re.escape(
                        f"trial 31: payoff {payoff!r} for item {item} ")):
                    ranker.feed(31, item, payoff)
                raised += 1
                assert (ranker.rewards, ranker.counts, ranker._means, ranker._top,
                        ranker._bottom, ranker._ks) == state
                want = _pass_or_error(find_permutation_oracle, ranker.rewards,
                                      ranker.counts, 31, 0.1, u)
                assert _pass_or_error(ranker.act, 31, u) == want
                passes += want is not ValueError
        assert raised == 240 and passes >= 180

    def test_utility_order_changes_mid_run(self):
        n, horizon = 6, 4000
        rng = np.random.default_rng(11)
        rows = np.array([rng.permutation(n) + 1.0 for _ in range(4)])
        # runs of 1 to 8 trials on one of four orders
        seq = np.repeat(rows[rng.integers(0, 4, horizon)], rng.integers(1, 9, horizon),
                        axis=0)[:horizon]
        means = rng.uniform(0.0, 1.0, n)

        def episode(cls):
            return utility_sequence_episode(
                cls(n, 0.05), seq, means, GaussianPayoffs(means, 11, 0),
                MultinomialWindows([0.3, 0.2, 0.2, 0.1, 0.1, 0.1], 11, 0))

        (fast, fast_orders), (slow, slow_orders) = (episode(EliminationRanker),
                                                    episode(OracleEliminationRanker))
        assert np.array_equal(fast_orders, slow_orders)
        assert np.array_equal(fast.selected, slow.selected)
        switches = int(np.sum(np.any(seq[1:] != seq[:-1], axis=1)))
        assert switches >= 500, switches

    @pytest.mark.parametrize("spec", ["fixed:3", "uniform:0..4"])
    def test_queued_wrapper(self, spec):
        n, horizon = 8, 3000
        rng = np.random.default_rng(13)
        inst = Instance(utilities=rng.permutation(n) + 1.0, means=rng.uniform(0.0, 1.0, n))
        q = 1.0 / np.arange(1, n + 1)

        def episode(cls):
            policy = QueuedDelayPolicy(cls(n, 0.05), DelayModel.parse(spec),
                                       np.random.default_rng([13, 1]))
            trace, orders = recorded_episode(policy, inst, GaussianPayoffs(inst.means, 13, 0),
                                             MultinomialWindows(q / q.sum(), 13, 0), horizon)
            return trace, orders, policy.base_clock

        (fast, fast_orders, steps), (slow, slow_orders, _) = (
            episode(EliminationRanker), episode(OracleEliminationRanker))
        assert np.array_equal(fast_orders, slow_orders)
        assert np.array_equal(fast.selected, slow.selected)
        assert steps >= 500, steps

    def test_counts_tie_and_untie(self):
        n = 8
        rng = np.random.default_rng(17)
        u = rng.permutation(n) + 0.5
        means = rng.uniform(0.0, 1.0, n)
        fast, slow = EliminationRanker(n, 0.1), OracleEliminationRanker(n, 0.1)
        # a feed unties its item if another item shared its count before,
        # and ties it if another shares the count after
        kinds = {"ties": 0, "unties": 0}
        for t in range(1, 3001):
            assert fast.act(t, u) == slow.act(t, u), t
            # every other feed levels the least-played item up, the rest go
            # to a random item
            item = (min(range(n), key=fast.counts.__getitem__) if t % 2
                    else int(rng.integers(0, n)))
            kinds["unties"] += fast.counts.count(fast.counts[item]) > 1
            payoff = float(rng.normal(means[item], 1.0))
            fast.feed(t, item, payoff)
            slow.feed(t, item, payoff)
            kinds["ties"] += fast.counts.count(fast.counts[item]) > 1
        assert min(kinds.values()) >= 500, kinds


def regret_seeking(instance):
    """A window script for :class:`AdaptiveWindows` that plays each window
    once, then the window whose last pick had the largest regret against the
    optimal family, the lowest such window on ties. It reads only the last
    entry of the history, so each trial costs O(n)."""
    n = instance.n
    means = instance.means.tolist()
    best = [means[s] for s in optimal_family(instance).benchmark_by_window]
    last = [0.0] * n  # regret of the last pick at each window

    def fn(t, history):
        if history:
            w, y, _ = history[-1]
            last[w - 1] = best[w - 1] - means[y]
        return t if t <= n else max(range(n), key=last.__getitem__) + 1

    return fn


# sha256 over seeds 0..3 in turn of the windows, picks and payoffs
# (little-endian int64, int64, float64) and displayed orders (int16) of
# EliminationRanker against the regret-seeking adversary
ADAPTIVE_DIGEST = "c98d5b35a0653d797b5f1bfe02f59924088d4b5e0a06b4571feb9d38b0200131"


class TestAdaptiveWindows:
    def test_regret_seeking_adversary_on_chain(self):
        # criterion 05's chain against windows chosen from the past picks
        n, horizon, delta = 5, 5000, 0.01
        inst = Instance(utilities=[1.0, 2.0, 3.0, 4.0, 5.0], means=[2.0, 1.5, 1.0, 0.5, 0.0])
        fam = optimal_family(inst)
        held = 0
        digest = hashlib.sha256()
        for seed in range(4):
            def episode(cls):
                windows = AdaptiveWindows(regret_seeking(inst), n)
                return recorded_episode(InformingPolicy(cls(n, delta), windows), inst,
                                        GaussianPayoffs(inst.means, seed, 0), windows, horizon)

            (fast, fast_orders), (slow, slow_orders) = (episode(EliminationRanker),
                                                        episode(OracleEliminationRanker))
            for column, dtype in ((fast.windows, "<i8"), (fast.selected, "<i8"),
                                  (fast.payoffs, "<f8"), (fast_orders, "<i2")):
                digest.update(np.ascontiguousarray(column, dtype=dtype).tobytes())
            assert np.array_equal(fast_orders, slow_orders), seed
            for name in ("windows", "selected", "payoffs"):
                assert np.array_equal(getattr(fast, name), getattr(slow, name)), (seed, name)
            # the adversary moves between windows
            assert len(set(fast.windows.tolist())) == n
            if not confidence_event_holds(fast.selected, fast.payoffs, inst.means, delta):
                continue
            held += 1
            inverted = count_inversions(fast.windows, fast.selected, fam, inst.means)
            assert inverted, seed
            for (s, y), count in inverted.items():
                assert count <= inversion_budget(inst.gap(s, y), horizon, delta, n), (seed, s, y)
        assert held >= 3, held
        assert digest.hexdigest() == ADAPTIVE_DIGEST


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
        assert r.act(2, u) == find_permutation(r, 2)
        assert r.act(2, u) == find_permutation_oracle(r.rewards, r.counts, 2, 0.1, u)

    def test_settles_on_family_member(self):
        inst = Instance(utilities=[1, 2, 3], means=[1.0, 0.6, 0.2])
        fam = optimal_family(inst)
        pol = EliminationRanker(3, 0.05)
        run_episode(pol, inst, GaussianPayoffs(inst.means, 1, 0),
                    MultinomialWindows([0.5, 0.3, 0.2], 1, 0), 4000)
        assert family_contains(fam, pol.act(4001, inst.utilities))


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
                            MultinomialWindows([0.6, 0.3, 0.1], 2, 0), 2000)
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
