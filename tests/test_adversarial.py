from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import random_lazy_q
from rankbandit.adversarial import (
    BLORanker,
    EpsilonGreedyRanker,
    MirrorDescent,
    _default_epsilon,
    lazy_alpha,
    pivot_marginals,
    pivot_permutation,
)
from rankbandit.core import Instance, user_select
from rankbandit.environments import MultinomialWindows, TapePayoffs, run_episode
from rankbandit.polytope import feasible_matrix, rfsm_decompose, window_suffix_bounds


class TestPivots:
    def test_permutations(self):
        assert pivot_permutation(0, 4) == (0, 1, 2, 3)
        assert pivot_permutation(2, 4) == (2, 1, 0, 3)
        assert pivot_permutation(3, 4) == (3, 2, 1, 0)

    def test_range_check(self):
        with pytest.raises(ValueError):
            pivot_permutation(4, 4)
        with pytest.raises(ValueError):
            pivot_permutation(-1, 4)

    def test_pick_under_window(self):
        # pivot i is picked by every window of length <= i+1
        for n in (2, 4, 6):
            for i in range(n):
                order = pivot_permutation(i, n)
                for w in range(1, n + 1):
                    expected = i if w <= i + 1 else w - 1
                    assert max(order[:w]) == expected


class TestLazyAlpha:
    def test_two_window_example(self):
        assert np.allclose(lazy_alpha([0.6, 0.4]), [5 / 6, 1 / 6], atol=1e-12)

    def test_exact_fractions(self):
        alpha = lazy_alpha([Fraction(3, 5), Fraction(2, 5)])
        assert list(alpha) == [Fraction(5, 6), Fraction(1, 6)]

    def test_uniform_collapses_to_first_pivot(self):
        assert np.allclose(lazy_alpha([0.25] * 4), [1.0, 0.0, 0.0, 0.0])

    def test_requires_non_increasing(self):
        with pytest.raises(ValueError):
            lazy_alpha([0.4, 0.6])

    def test_requires_positive_head(self):
        with pytest.raises(ValueError):
            lazy_alpha([0.0, 1.0])

    def test_requires_distribution(self):
        with pytest.raises(ValueError):
            lazy_alpha([0.6, 0.6])

    def test_uniform_pick_marginals(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            q = random_lazy_q(rng, n)
            alpha = lazy_alpha(q)
            assert np.all(alpha >= -1e-12)
            assert alpha.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.allclose(pivot_marginals(alpha, q), 1.0 / n, atol=1e-9)


class TestMirrorDescent:
    def setup_method(self):
        self.q = np.array([0.5, 0.3, 0.2])

    def _assert_feasible(self, md, p):
        bounds = window_suffix_bounds(md.q)
        assert np.all(p >= -1e-12)
        assert p.sum() == pytest.approx(1.0, abs=1e-8)
        suffix = np.cumsum(p[::-1])[::-1]
        assert np.all(suffix[1:] >= bounds[1:] - 1e-8)

    def test_initial_iterate_feasible(self):
        md = MirrorDescent(self.q)
        self._assert_feasible(md, md.act())
        feasible_matrix(md.act(), self.q, atol=1e-6, feas_tol=1e-6)

    def test_projection_idempotent(self):
        md = MirrorDescent(self.q)
        p = md.act()
        assert np.max(np.abs(md.project(p) - p)) < 1e-9

    def test_zero_loss_keeps_iterate(self):
        md = MirrorDescent(self.q, horizon=100)
        before = md.act()
        md.feed(2, 0.0)
        assert np.max(np.abs(md.act() - before)) < 1e-9

    def test_positive_loss_drains_rank(self):
        md = MirrorDescent(self.q, eta=0.2)
        before = md.act()
        md.feed(2, 5.0)
        after = md.act()
        assert after[2] < before[2]
        self._assert_feasible(md, after)

    def test_negative_loss_feeds_rank(self):
        md = MirrorDescent(self.q, eta=0.2)
        before = md.act()
        md.feed(2, -5.0)
        assert md.act()[2] > before[2]

    def test_never_pickable_rank(self):
        md = MirrorDescent([0.0, 1.0])
        assert np.allclose(md.act(), [0.0, 1.0])
        with pytest.raises(ValueError, match="never"):
            md.feed(0, 1.0)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            MirrorDescent([0.7, 0.4])
        with pytest.raises(ValueError):
            MirrorDescent([[0.5, 0.5]])

    def test_known_horizon_step_size(self):
        md = MirrorDescent(self.q, horizon=5000)
        assert md.eta == pytest.approx(np.sqrt(2.0 / (5000 * 3)))

    def test_anytime_doubling(self):
        md = MirrorDescent(self.q)
        eta0 = md.eta
        for _ in range(1024):
            md.feed(2, 0.0)
        assert md.eta == pytest.approx(eta0)
        md.feed(2, 0.0)
        assert md.eta == pytest.approx(eta0 / np.sqrt(2.0))

    def test_long_random_run_stays_feasible(self):
        rng = np.random.default_rng(71)
        md = MirrorDescent(self.q, horizon=500)
        for _ in range(500):
            p = md.act()
            self._assert_feasible(md, p)
            idx = int(rng.integers(0, 3))
            payoff = float(rng.random())
            md.feed(idx, -payoff / max(p[idx], 1e-9))

    def test_fixed_loss_drives_to_lp_optimum(self):
        # repeated identical dense losses push the iterate to the vertex an
        # LP solve identifies on the same polytope
        loss = np.array([0.3, -0.2, -1.0])
        md = MirrorDescent(self.q, eta=0.05)
        for _ in range(3000):
            md.feed(dense=loss)
        bounds = window_suffix_bounds(self.q)
        A_ub = np.array([[-float(i >= j) for i in range(3)] for j in range(1, 3)])
        res = linprog(loss, A_ub=A_ub, b_ub=-bounds[1:], A_eq=np.ones((1, 3)),
                      b_eq=np.array([1.0]), bounds=(0, None), method="highs")
        assert res.status == 0
        assert float(loss @ md.act()) == pytest.approx(res.fun, abs=0.02)


class TestBLORanker:
    def test_act_returns_item_permutation(self):
        rng = np.random.default_rng(73)
        ranker = BLORanker([0.5, 0.3, 0.2], horizon=100, rng=rng)
        order = ranker.act(1, [0.2, 0.9, 0.4])
        assert sorted(order) == [0, 1, 2]
        assert ranker.last_marginals is not None
        assert ranker.last_marginals.sum() == pytest.approx(1.0, abs=1e-8)

    def test_feed_before_act(self):
        ranker = BLORanker([0.5, 0.5])
        with pytest.raises(RuntimeError, match="feed before act"):
            ranker.feed(1, 0, 1.0)

    def test_pick_frequencies_match_marginals(self):
        # zero-payoff feedback freezes the engine, so picks are i.i.d. with
        # item marginals given by the realized matrix
        q = np.array([0.5, 0.3, 0.2])
        u = [0.2, 0.9, 0.4]
        ranker = BLORanker(q, horizon=100, rng=np.random.default_rng(79))
        env = np.random.default_rng(83)
        trials = 20_000
        counts = np.zeros(3)
        for t in range(1, trials + 1):
            order = ranker.act(t, u)
            w = int(env.choice(3, p=q)) + 1
            pick = user_select(order, u, w)
            counts[pick] += 1
            ranker.feed(t, pick, 0.0)
        by_rank = np.argsort(u)
        expected = np.empty(3)
        expected[by_rank] = ranker.last_marginals
        freq = counts / trials
        se = np.sqrt(expected * (1 - expected) / trials)
        assert np.all(np.abs(freq - expected) <= 4 * se + 1e-12)

    def test_fixed_utilities_cannot_change(self):
        ranker = BLORanker([0.5, 0.5], rng=np.random.default_rng(5))
        ranker.act(1, [0.3, 0.8])
        ranker.feed(1, 0, 0.5)
        with pytest.raises(ValueError, match="changing_utilities"):
            ranker.act(2, [0.8, 0.3])

    def test_changing_utilities_rank_encoding(self):
        ranker = BLORanker([0.5, 0.3, 0.2], rng=np.random.default_rng(7),
                           changing_utilities=True)
        ranker.act(1, [2.0, 3.0, 1.0])
        ranker.feed(1, 0, 0.1)
        ranker.act(2, [1.0, 2.0, 3.0])  # identities may rotate freely
        ranker.feed(2, 2, 0.1)
        with pytest.raises(ValueError, match="permutation of 1..n"):
            ranker.act(3, [0.5, 2.0, 3.0])

    def test_loss_scale_uses_realized_marginals(self):
        # a payoff on the top rank shifts mass toward it on the next act
        q = [0.5, 0.3, 0.2]
        ranker = BLORanker(q, eta=0.3, rng=np.random.default_rng(11))
        u = [1.0, 2.0, 3.0]
        order = ranker.act(1, u)
        before = ranker.engine.act().copy()
        ranker.feed(1, 2, 1.0)  # item 2 holds the top rank
        assert ranker.engine.act()[2] > before[2]


class _PeelingBLORanker(BLORanker):
    """Reference ranker: build the coupling matrix, peel it, draw one term."""

    def act(self, t, utilities):
        ranks, by_rank = self._rank_maps(utilities)
        p = np.clip(self.engine.act(), 0.0, None)
        p /= p.sum()
        q = self.engine.q
        matrix = feasible_matrix(p, q, atol=1e-6, feas_tol=1e-6)
        rank_order = rfsm_decompose(matrix, check_input=False).sample(self.rng)
        realized = matrix @ q
        self.last_marginals = realized
        self._pending = (realized, ranks)
        return tuple(int(by_rank[r]) for r in rank_order)


class TestBLORankerSampler:
    @pytest.mark.parametrize("q, seed", [
        ([0.3, 0.25, 0.2, 0.15, 0.1, 0.0], 3),          # lazy, zero last window
        ([0.1, 0.0, 0.4, 0.05, 0.25, 0.0, 0.2, 0.0], 5),  # non-lazy, zero windows
        (np.full(20, 0.05), 7),
    ])
    def test_episode_matches_peeling(self, q, seed):
        n = len(q)
        rng = np.random.default_rng(seed)
        instance = Instance(utilities=rng.permutation(n) + 1.0)
        rates = rng.uniform(0.0, 1.0, size=n)
        horizon = 1000

        def episode(cls):
            ranker = cls(q, horizon=horizon, rng=np.random.default_rng([seed, 1]))
            tape = TapePayoffs.bernoulli(rates, horizon, seed, 0)
            windows = MultinomialWindows(np.asarray(q, dtype=float), seed, 0)
            trace = run_episode(ranker, instance, tape, windows, horizon,
                                benchmark="none", record_orders=False)
            return trace, ranker

        direct, direct_ranker = episode(BLORanker)
        peeled, peeled_ranker = episode(_PeelingBLORanker)
        assert np.array_equal(direct.selected, peeled.selected)
        assert np.array_equal(direct.windows, peeled.windows)
        assert np.max(np.abs(direct_ranker.last_marginals
                             - peeled_ranker.last_marginals)) < 1e-9

    def test_act_draws_one_uniform(self):
        q = [0.4, 0.1, 0.3, 0.2]
        ranker = BLORanker(q, eta=0.2, rng=np.random.default_rng(89))
        twin = np.random.default_rng(89)
        u = [3.0, 1.0, 4.0, 2.0]
        for t in range(1, 30):
            ranker.act(t, u)
            twin.random()
            assert ranker.rng.bit_generator.state == twin.bit_generator.state
            ranker.feed(t, t % 4, 0.5)

    def test_residual_check(self):
        # a target the window law cannot realize is caught, not played
        ranker = BLORanker([0.5, 0.5], rng=np.random.default_rng(97))
        ranker.engine.p = np.array([0.9, 0.1])
        with pytest.raises(RuntimeError, match="coupling residual"):
            ranker.act(1, [1.0, 2.0])


class TestEpsilonGreedy:
    def test_always_explore_uses_pivot_mixture(self):
        # uniform windows put all mixture weight on the ascending pivot
        ranker = EpsilonGreedyRanker([1 / 3] * 3, rng=np.random.default_rng(13),
                                     epsilon_fn=lambda t: 1.0)
        assert ranker.act(1, [0.1, 0.9, 0.5]) == (0, 2, 1)

    def test_always_exploit_uses_empirical_optimum(self):
        ranker = EpsilonGreedyRanker([0.5, 0.3, 0.2],
                                     rng=np.random.default_rng(17),
                                     epsilon_fn=lambda t: 0.0)
        for item, mean in ((0, 1.0), (1, 3.0), (2, 2.0)):
            for _ in range(10):
                ranker.feed(1, item, mean)
        assert ranker.act(5, [1.0, 2.0, 3.0]) == (1, 0, 2)

    def test_anytime_rate(self):
        assert _default_epsilon(1, 5) == 1.0
        vals = [_default_epsilon(t, 5) for t in range(20, 10_000, 37)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert _default_epsilon(10_000, 5) == pytest.approx(
            (5 * np.log(10_001) / 10_000) ** (1 / 3))

    def test_anytime_rate_scales_with_constant(self):
        for t in (1, 7, 100, 10_000):
            assert _default_epsilon(t, 5, 1.0) == _default_epsilon(t, 5)
            assert _default_epsilon(t, 5, 50.0) == 1.0
        for t in (100, 10_000):  # below the cap of 1
            assert _default_epsilon(t, 5, 0.01) == 0.01 * _default_epsilon(t, 5)
        ranker = EpsilonGreedyRanker([0.5, 0.5], explore_constant=0.5)
        assert ranker._epsilon(1000) == pytest.approx(0.5 * _default_epsilon(1000, 2))

    def test_horizon_rate(self):
        ranker = EpsilonGreedyRanker([0.5, 0.5], horizon=1000,
                                     explore_constant=2.0)
        assert ranker._epsilon(1) == pytest.approx(
            min(1.0, 2.0 * (2 / 1000) ** (1 / 3)))

    def test_exploration_feeds_every_item(self):
        q = [0.4, 0.3, 0.2, 0.1]
        ranker = EpsilonGreedyRanker(q, rng=np.random.default_rng(19),
                                     epsilon_fn=lambda t: 1.0)
        env = np.random.default_rng(23)
        u = [0.3, 0.1, 0.4, 0.2]
        for t in range(1, 2001):
            order = ranker.act(t, u)
            w = int(env.choice(4, p=q)) + 1
            pick = user_select(order, u, w)
            ranker.feed(t, pick, 0.0)
        # lazy mixture guarantees every item is picked at rate 1/n
        assert min(ranker.counts) > 2000 / 4 * 0.7
