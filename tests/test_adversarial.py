import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import (
    coupling_sample, feasible_matrix_oracle, random_lazy_q, sample_decomposition,
)
from rankbandit.adversarial import (
    BLORanker,
    EpsilonGreedyRanker,
    MirrorDescent,
    ProjectionError,
    _default_epsilon,
    _solve_masses,
    lazy_alpha,
    pivot_marginals,
    pivot_permutation,
)
from rankbandit.core import (
    Instance, _family_from_arrays, items_by_rank, user_select, utility_ranks,
)
from rankbandit.elimination import EliminationRanker
from rankbandit.environments import MultinomialWindows, TapePayoffs, run_episode
from rankbandit.polytope import rfsm_decompose, window_suffix_bounds


def block_constant_oracle(g, mass):
    """Reference root solve of a block: Newton from the bracket's midpoint."""
    gmin = min(g)
    if len(g) == 1:
        return -gmin + 1.0 / math.sqrt(mass)
    lo = -gmin + 1.0 / math.sqrt(mass)          # sum >= mass here
    hi = -gmin + math.sqrt(len(g) / mass)       # sum <= mass here
    c = 0.5 * (lo + hi)
    h_tol = 1e-12 * mass
    for _ in range(100):
        h = -mass
        dh = 0.0
        for x in g:
            d = x + c
            inv2 = 1.0 / (d * d)
            h += inv2
            dh -= 2.0 * inv2 / d
        if h > 0:
            lo = c
        else:
            hi = c
        if hi - lo <= 1e-15 * (1.0 + abs(c)) or abs(h) < h_tol:
            break
        step = c - h / dh
        c = step if lo < step < hi else 0.5 * (lo + hi)
    return c


def solve_masses_oracle(g, lower):
    """Reference solver of the mirror step, with mid-bracket Newton starts and
    no KKT residual: minimize ``g @ p - 2 * sum(sqrt(p))`` over the
    suffix-bounded simplex.

    ``lower[j]`` bounds the mass on coordinates ``>= j`` from below, with
    ``lower[0] == 1`` acting as the total-mass equality. Active bounds split
    the coordinates into consecutive blocks whose masses are pinned, and each
    block solves to ``p_i = (g_i + c)^-2`` for a per-block constant; the
    active set grows on primal violations and merges on dual violations
    (the block constants must be non-increasing).
    """
    n = len(g)
    max_iter = 8 * n + 32
    active: list[int] = []
    for _ in range(max_iter):
        bounds = [0] + active + [n]
        levels = [lower[0]] + [lower[j] for j in active] + [0.0]
        p = [0.0] * n
        constants: list[float] = []
        for k in range(len(bounds) - 1):
            lo_i, hi_i = bounds[k], bounds[k + 1]
            mass = levels[k] - levels[k + 1]
            if mass <= 1e-15:
                constants.append(math.inf)
                continue
            try:
                c = block_constant_oracle(g[lo_i:hi_i], mass)
                total = 0.0
                for i in range(lo_i, hi_i):
                    d = g[i] + c
                    p[i] = 1.0 / (d * d)
                    total += p[i]
                # snap the block to its pinned mass so the equality and active
                # suffix bounds hold to machine precision, not root-solve precision
                scale = mass / total
            except ZeroDivisionError:
                # a loss that swamps g rounds some g_i + c to 0, or every term to 0
                raise ProjectionError(
                    f"block {lo_i}..{hi_i - 1} is not solvable in double precision; "
                    f"g={g}; p={p}") from None
            constants.append(c)
            for i in range(lo_i, hi_i):
                p[i] *= scale

        # primal: find the most violated inactive suffix bound
        suffix = 0.0
        worst_j, worst_v = -1, 1e-11
        active_set = set(active)
        for j in range(n - 1, 0, -1):
            suffix += p[j]
            if j not in active_set:
                v = lower[j] - suffix
                if v > worst_v:
                    worst_j, worst_v = j, v
        if worst_j >= 0:
            active = sorted(active + [worst_j])
            continue

        # dual: block constants must be non-increasing bottom-up
        bad = next((k for k in range(len(constants) - 1)
                    if constants[k] < constants[k + 1] - 1e-11), None)
        if bad is not None:
            active = [j for j in active if j != bounds[bad + 1]]
            continue
        return p
    raise ProjectionError(
        f"no convergence after {max_iter} iterations; active={active}; p={p}")


def kkt_residual_oracle(masses, lower):
    """The largest of ``|sum(masses) - 1|`` and the suffix-bound shortfalls,
    in a suffix scan of its own."""
    suffix = 0.0
    worst = 0.0
    for j in range(len(masses) - 1, 0, -1):
        suffix += masses[j]
        if lower[j] - suffix > worst:
            worst = lower[j] - suffix
    return max(abs(suffix + masses[0] - 1.0), worst)


def mirror_step_oracle(md, index, value):
    """The iterate one step of the solver above takes ``md`` to; a zero loss
    steps too."""
    off = md._offset
    g = [1.0 / math.sqrt(x) for x in md.p[off:]]
    g[index - off] += md.eta * value
    masses = solve_masses_oracle(g, md._lower)
    assert kkt_residual_oracle(masses, md._lower) <= 1e-8
    return [0.0] * off + masses


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
        p = np.asarray(p)
        assert np.all(p >= -1e-12)
        assert p.sum() == pytest.approx(1.0, abs=1e-8)
        suffix = np.cumsum(p[::-1])[::-1]
        assert np.all(suffix[1:] >= bounds[1:] - 1e-8)

    def test_initial_iterate_feasible(self):
        md = MirrorDescent(self.q, horizon=100)
        self._assert_feasible(md, md.p)
        feasible_matrix_oracle(md.p, self.q, atol=1e-6, feas_tol=1e-6)

    def test_projection_idempotent(self):
        md = MirrorDescent(self.q, horizon=100)
        p = md.p
        g = [1.0 / math.sqrt(x) for x in p]
        masses, residual = _solve_masses(g, md._lower)
        assert np.max(np.abs(np.subtract(masses, p))) < 1e-9
        assert residual <= 1e-12

    def test_zero_loss_keeps_iterate(self):
        # the exact minimizer of D(p, p_prev) is p_prev: no step is taken
        md = MirrorDescent(self.q, horizon=100)
        md.feed(1, 0.5)
        before = md.p
        for t, zero in ((2, 0.0), (3, -0.0)):
            md.feed(2, zero)
            assert md.p is before and md.t == t
        assert np.max(np.abs(np.subtract(before, mirror_step_oracle(md, 2, 0.0)))) < 1e-12
        md.feed(0, 0.5)
        assert md.p is not before

    def test_positive_loss_drains_rank(self):
        md = MirrorDescent(self.q, eta=0.2)
        before = md.p
        md.feed(2, 5.0)
        after = md.p
        assert after[2] < before[2]
        self._assert_feasible(md, after)

    def test_negative_loss_feeds_rank(self):
        md = MirrorDescent(self.q, eta=0.2)
        before = md.p
        md.feed(2, -5.0)
        assert md.p[2] > before[2]

    def test_never_pickable_rank(self):
        md = MirrorDescent([0.0, 1.0], horizon=100)
        assert np.allclose(md.p, [0.0, 1.0])
        with pytest.raises(ValueError, match="never"):
            md.feed(0, 1.0)

    def test_failed_step_names_its_step_and_keeps_the_iterate(self):
        md = MirrorDescent(self.q, eta=0.2)
        md.feed(1, 0.5)
        before = md.p
        with pytest.raises(ProjectionError, match=r"mirror step 2: KKT residual nan .*p=\["):
            md.feed(2, float("nan"))
        assert md.p == before

    def test_swamping_loss_fails_as_a_named_step(self):
        # eta * loss rounds g_i + c to 0 for the fed rank in double precision
        md = MirrorDescent(self.q, eta=0.2)
        before = md.p
        with pytest.raises(ProjectionError, match=r"mirror step 1: block 2\.\.2 .*p=\["):
            md.feed(2, 1e20)
        assert md.p == before

    def test_large_loss_still_steps(self):
        md = MirrorDescent(self.q, eta=0.2)
        before = md.p
        md.feed(2, 1e16)
        assert md.p[2] < before[2]
        self._assert_feasible(md, md.p)

    def test_solver_failure_names_its_step(self, monkeypatch):
        md = MirrorDescent(self.q, eta=0.2)

        def no_convergence(g, lower):
            raise ProjectionError("no convergence after 56 iterations; active=[]; p=[]")

        monkeypatch.setattr("rankbandit.adversarial._solve_masses", no_convergence)
        with pytest.raises(ProjectionError, match="mirror step 1: no convergence"):
            md.feed(2, 1.0)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            MirrorDescent([0.7, 0.4], horizon=100)
        with pytest.raises(ValueError):
            MirrorDescent([[0.5, 0.5]], horizon=100)
        # q is checked before the step size, so its error reads the same
        with pytest.raises(ValueError, match=r"^q: must sum to 1"):
            MirrorDescent([0.7, 0.4])

    @pytest.mark.parametrize("build", [MirrorDescent, BLORanker])
    def test_needs_horizon_or_eta(self, build):
        with pytest.raises(ValueError, match="horizon or an eta"):
            build(self.q)

    def test_known_horizon_step_size(self):
        md = MirrorDescent(self.q, horizon=5000)
        assert md.eta == pytest.approx(np.sqrt(2.0 / (5000 * 3)))

    def test_long_random_run_stays_feasible(self):
        rng = np.random.default_rng(71)
        md = MirrorDescent(self.q, horizon=500)
        for _ in range(500):
            p = md.p
            self._assert_feasible(md, p)
            idx = int(rng.integers(0, 3))
            payoff = float(rng.random())
            md.feed(idx, -payoff / max(p[idx], 1e-9))

    def test_fixed_loss_drives_to_lp_optimum(self):
        # repeated identical dense mirror steps push the iterate to the
        # vertex an LP solve identifies on the same polytope
        loss = np.array([0.3, -0.2, -1.0])
        md = MirrorDescent(self.q, eta=0.05)
        p = md.p
        for _ in range(3000):
            g = [1.0 / math.sqrt(x) + md.eta * float(v) for x, v in zip(p, loss)]
            p, _ = _solve_masses(g, md._lower)
        bounds = window_suffix_bounds(self.q)
        A_ub = np.array([[-float(i >= j) for i in range(3)] for j in range(1, 3)])
        res = linprog(loss, A_ub=A_ub, b_ub=-bounds[1:], A_eq=np.ones((1, 3)),
                      b_eq=np.array([1.0]), bounds=(0, None), method="highs")
        assert res.status == 0
        assert float(loss @ p) == pytest.approx(res.fun, abs=0.02)


def _suffix_bound_qs(n):
    """Window laws at ``n``: uniform, Zipf-lazy, one whose long windows pin
    suffix bounds of the uniform iterate, and one with impossible short windows."""
    zipf = 1.0 / np.arange(1, n + 1)
    heavy = np.arange(1, n + 1) ** 3.0
    late = np.ones(n)
    late[:2] = 0.0
    return [np.full(n, 1.0 / n)] + [v / v.sum() for v in (zipf, heavy, late)]


class TestMirrorStepMatchesOracle:
    @pytest.mark.parametrize("n", [5, 20, 50])
    def test_one_step_agrees_with_reference_solver(self, n):
        # every step starts from the engine's own iterate, so each compares
        # one step of the two solvers from the same point
        rng = np.random.default_rng([n, 101])
        active = kinds = 0
        for q in _suffix_bound_qs(n):
            md = MirrorDescent(q, horizon=2000)
            for step in range(40 if n < 50 else 15):
                index = int(rng.integers(md._offset, n))
                kind = step % 3
                value = (0.0, float(rng.uniform(0.0, 3.0)),
                         -float(rng.random()) / md.p[index])[kind]
                expected = mirror_step_oracle(md, index, value)
                md.feed(index, value)
                assert np.max(np.abs(np.subtract(md.p, expected))) <= 1e-12
                suffix = np.cumsum(md.p[::-1])[::-1][md._offset + 1:]
                active += bool(np.any(suffix - md._lower[1:] < 1e-12))
                kinds |= 1 << kind
        assert kinds == 7
        assert active > 0  # the suffix bounds take part

    def test_residual_is_the_reference_scan(self):
        # the solver reads its KKT residual off its last primal scan
        rng = np.random.default_rng(103)
        for q in _suffix_bound_qs(12):
            md = MirrorDescent(q, eta=0.3)
            for _ in range(30):
                g = [1.0 / math.sqrt(x) for x in md.p[md._offset:]]
                g[int(rng.integers(len(g)))] += float(rng.normal(0.0, 2.0))
                masses, residual = _solve_masses(g, md._lower)
                assert residual == kkt_residual_oracle(masses, md._lower)

    def test_nan_loss_still_raises(self):
        md = MirrorDescent([0.5, 0.3, 0.2], eta=0.2)
        with pytest.raises(ProjectionError, match="KKT residual nan"):
            md.feed(0, float("nan"))
        assert md.t == 1


class TestBLORanker:
    def test_act_returns_item_permutation(self):
        rng = np.random.default_rng(73)
        ranker = BLORanker([0.5, 0.3, 0.2], horizon=100, rng=rng)
        order = ranker.act(1, [0.2, 0.9, 0.4])
        assert sorted(order) == [0, 1, 2]
        assert ranker.last_marginals is not None
        assert sum(ranker.last_marginals) == pytest.approx(1.0, abs=1e-8)

    def test_feed_before_act(self):
        ranker = BLORanker([0.5, 0.5], horizon=100)
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

    def test_changing_utilities_rank_encoding(self):
        ranker = BLORanker([0.5, 0.3, 0.2], horizon=100, rng=np.random.default_rng(7))
        ranker.act(1, [2.0, 3.0, 1.0])
        ranker.feed(1, 0, 0.1)
        ranker.act(2, [1.0, 2.0, 3.0])  # identities may rotate freely
        ranker.feed(2, 2, 0.1)
        for wrong in ([0.5, 2.0], [0.5, 2.0, 3.0, 4.0]):
            with pytest.raises(ValueError, match="expected 3 utilities"):
                ranker.act(3, wrong)

    def test_utilities_and_their_rank_encoding_learn_alike(self):
        # any distinct utilities drive the trajectory of their rank encoding
        # 1..n; after the order changes at trial 201, each loss still lands
        # on the rank its item held at that trial's act
        q = [0.4, 0.3, 0.2, 0.1]
        rng = np.random.default_rng(19)
        u, changed = np.array([0.7, -2.0, 5.5, 0.1]), np.array([3.0, 8.0, -1.0, 0.2])
        rankers = [BLORanker(q, horizon=240, rng=np.random.default_rng(13)) for _ in range(2)]
        reference = MirrorDescent(q, horizon=240)
        for t in range(1, 241):
            shown = u if t <= 200 else changed
            ranks = utility_ranks(shown)
            order = rankers[0].act(t, shown)
            assert rankers[1].act(t, ranks + 1) == order
            item = user_select(order, shown, int(rng.integers(1, 5)))
            payoff = float(rng.random())
            for ranker in rankers:
                ranker.feed(t, item, payoff)
            rank = int(ranks[item])
            reference.feed(rank, -payoff / rankers[0].last_marginals[rank])
            assert rankers[0].engine.p == rankers[1].engine.p == reference.p

    def test_loss_scale_uses_realized_marginals(self):
        # a payoff on the top rank shifts mass toward it on the next act
        q = [0.5, 0.3, 0.2]
        ranker = BLORanker(q, eta=0.3, rng=np.random.default_rng(11))
        u = [1.0, 2.0, 3.0]
        order = ranker.act(1, u)
        before = ranker.engine.p
        ranker.feed(1, 2, 1.0)  # item 2 holds the top rank
        assert ranker.engine.p[2] > before[2]


class _PeelingBLORanker(BLORanker):
    """Reference ranker: build the coupling matrix, peel it, draw one term."""

    def act(self, t, utilities):
        ranks, by_rank = self._rank_maps(utilities)
        p = np.clip(self.engine.p, 0.0, None)
        p /= p.sum()
        q = self.engine.q
        matrix = feasible_matrix_oracle(p, q, atol=1e-6, feas_tol=1e-6)
        rank_order = sample_decomposition(
            rfsm_decompose(matrix, atol=1e-6), self.rng)
        realized = matrix @ q
        self.last_marginals = realized
        self._pending = (realized, ranks)
        return tuple(int(by_rank[r]) for r in rank_order)


class _NumpyGlueBLORanker(BLORanker):
    """Reference ranker: the iterate copied into numpy, clipped at 0 and
    renormalized before the draw, with the realized marginals kept as an array."""

    def act(self, t, utilities):
        ranks, by_rank = self._rank_maps(utilities)
        p = np.clip(np.array(self.engine.p), 0.0, None)
        p /= p.sum()
        rank_order, realized = coupling_sample(p.tolist(), self.engine.q.tolist(),
                                               float(self.rng.random()))
        realized = np.asarray(realized)
        residual = float(np.max(np.abs(realized - p)))
        if residual > 1e-6:
            raise RuntimeError(f"coupling residual {residual:.3g} exceeds 1e-06")
        self.last_marginals = realized
        self._pending = (realized, ranks)
        return tuple(int(by_rank[r]) for r in rank_order)


_EPISODES = pytest.mark.parametrize("q, seed", [
    ([0.3, 0.25, 0.2, 0.15, 0.1, 0.0], 3),          # lazy, zero last window
    ([0.1, 0.0, 0.4, 0.05, 0.25, 0.0, 0.2, 0.0], 5),  # non-lazy, zero windows
    (np.full(20, 0.05), 7),                           # lazy, n = 20
])


def _episode(cls, q, seed, horizon=1000):
    """One tape episode of ``cls``: (trace, ranker, engine iterate after each feed)."""
    n = len(q)
    rng = np.random.default_rng(seed)
    instance = Instance(utilities=rng.permutation(n) + 1.0)
    rates = rng.uniform(0.0, 1.0, size=n)
    ranker = cls(q, horizon=horizon, rng=np.random.default_rng([seed, 1]))
    iterates = []
    feed = ranker.feed

    def recording_feed(t, item, payoff):
        feed(t, item, payoff)
        iterates.append(list(ranker.engine.p))

    ranker.feed = recording_feed
    tape = TapePayoffs.bernoulli(rates, horizon, seed, 0)
    windows = MultinomialWindows(np.asarray(q, dtype=float), seed, 0)
    trace = run_episode(ranker, instance, tape, windows, horizon,
                        benchmark="none", record_orders=False)
    return trace, ranker, np.asarray(iterates)


class TestBLORankerSampler:
    @_EPISODES
    def test_episode_matches_peeling(self, q, seed):
        direct, direct_ranker, _ = _episode(BLORanker, q, seed)
        peeled, peeled_ranker, _ = _episode(_PeelingBLORanker, q, seed)
        assert np.array_equal(direct.selected, peeled.selected)
        assert np.array_equal(direct.windows, peeled.windows)
        assert np.max(np.abs(np.subtract(direct_ranker.last_marginals,
                                          peeled_ranker.last_marginals))) < 1e-9

    @_EPISODES
    def test_episode_matches_numpy_glue(self, q, seed):
        lists, _, list_iterates = _episode(BLORanker, q, seed, horizon=2000)
        glue, _, glue_iterates = _episode(_NumpyGlueBLORanker, q, seed, horizon=2000)
        assert np.array_equal(lists.selected, glue.selected)
        assert np.array_equal(lists.windows, glue.windows)
        assert list_iterates.shape == (2000, len(q))
        assert np.max(np.abs(list_iterates - glue_iterates)) < 1e-12

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

    def test_rankings_match_coupling_sample(self):
        # the sampler is set up once per iterate; every trial, with the
        # iterate kept by a zero payoff or moved by a nonzero one, shows the
        # ranking and the marginals the one-call oracle gives, to the bit
        q = np.array([0.3, 0.25, 0.2, 0.1, 0.1, 0.05])
        ranker = BLORanker(q, horizon=600, rng=np.random.default_rng(29))
        twin = np.random.default_rng(29)
        env = np.random.default_rng(31)
        u = np.array([0.4, 2.0, -1.0, 0.9, 3.5, 1.2])
        by_rank = items_by_rank(u)
        zeros = 0
        for t in range(1, 601):
            p = ranker.engine.p
            ranking, realized = coupling_sample(p, q.tolist(), float(twin.random()))
            order = ranker.act(t, u)
            assert order == tuple(int(by_rank[r]) for r in ranking)
            assert ranker.last_marginals == realized
            pick = user_select(order, u, int(env.choice(6, p=q)) + 1)
            payoff = float(env.random() < 0.5)
            zeros += payoff == 0.0
            ranker.feed(t, pick, payoff)
        assert 0 < zeros < 600

    def test_residual_check(self):
        # a target the window law cannot realize is caught, not played, and
        # the error names the policy and the trial
        ranker = BLORanker([0.5, 0.5], horizon=100, rng=np.random.default_rng(97))
        ranker.engine.p = [0.9, 0.1]
        with pytest.raises(RuntimeError, match="osmd trial 7: coupling residual 0.4 "):
            ranker.act(7, [1.0, 2.0])


def _elimination(n):
    return EliminationRanker(n, 0.05)


def _blo(n):
    return BLORanker(np.full(n, 1.0 / n), horizon=200, rng=np.random.default_rng(5))


def _greedy(n):
    return EpsilonGreedyRanker(np.full(n, 1.0 / n), rng=np.random.default_rng(5),
                               explore_constant=0.5)


class TestUtilitiesIdentity:
    """A ranker may skip comparing utilities only for the same array when no
    one can have written to it since; anything else is compared."""

    @pytest.mark.parametrize("build", [_elimination, _blo, _greedy])
    @pytest.mark.parametrize("shown", ["mutated", "read-only view", "thawed", "frozen"])
    def test_rankings_follow_the_values(self, build, shown):
        n = 5
        rng = np.random.default_rng(37)
        rows = [rng.permutation(n) + 1.0 for _ in range(4)]
        base = rows[0].copy()
        if shown == "read-only view":
            array = base.view()
            array.setflags(write=False)
        elif shown == "frozen":
            array = Instance(utilities=base).utilities
        else:
            array = base
        ranker, twin = build(n), build(n)
        for t in range(1, 121):
            row = rows[(t // 7) % 4] if shown != "frozen" else rows[0]
            if shown == "thawed":
                # read-only until the rows first change, then writeable
                base.setflags(write=t >= 7)
            if base.flags.writeable:
                base[:] = row  # in place, between two acts
            order = ranker.act(t, array)
            assert order == twin.act(t, row.tolist()), t
            pick = user_select(order, row, int(rng.integers(1, n + 1)))
            payoff = float(rng.random())
            ranker.feed(t, pick, payoff)
            twin.feed(t, pick, payoff)


class TestEpsilonGreedy:
    def test_always_explore_uses_pivot_mixture(self):
        # uniform windows put all mixture weight on the ascending pivot
        ranker = EpsilonGreedyRanker([1 / 3] * 3, rng=np.random.default_rng(13),
                                     explore_constant=1e9)
        assert ranker.act(1, [0.1, 0.9, 0.5]) == (0, 2, 1)

    def test_always_exploit_uses_empirical_optimum(self):
        ranker = EpsilonGreedyRanker([0.5, 0.3, 0.2],
                                     rng=np.random.default_rng(17),
                                     explore_constant=0.0)
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

    def test_exploration_feeds_every_item(self):
        q = [0.4, 0.3, 0.2, 0.1]
        ranker = EpsilonGreedyRanker(q, rng=np.random.default_rng(19),
                                     explore_constant=1e9)
        env = np.random.default_rng(23)
        u = [0.3, 0.1, 0.4, 0.2]
        for t in range(1, 2001):
            order = ranker.act(t, u)
            w = int(env.choice(4, p=q)) + 1
            pick = user_select(order, u, w)
            ranker.feed(t, pick, 0.0)
        # lazy mixture guarantees every item is picked at rate 1/n
        assert min(ranker.counts) > 2000 / 4 * 0.7


class _ReferenceEpsilonGreedy(EpsilonGreedyRanker):
    """Reference ranker: fresh means and a fresh family every exploit trial, the
    pivot drawn by ``Generator.choice`` and the utility order sorted again."""

    def __init__(self, q, **kwargs):
        super().__init__(q, **kwargs)
        self.alpha = np.asarray(lazy_alpha(q), dtype=float)

    def act(self, t, utilities):
        if self.rng.random() < self._epsilon(t):
            self.explorations += 1
            pivot = int(self.rng.choice(self.n, p=self.alpha / self.alpha.sum()))
            rank_order = pivot_permutation(pivot, self.n)
            by_rank = items_by_rank(utilities)
            return tuple(int(by_rank[r]) for r in rank_order)
        means = [self.rewards[i] / self.counts[i] if self.counts[i] else 0.0
                 for i in range(self.n)]
        return _family_from_arrays(list(utilities), means, strict=False).representative

    def feed(self, t, item, payoff):
        self.rewards[item] += payoff
        self.counts[item] += 1


def _greedy_lockstep(n, payoffs, utilities, c, seed, horizon=300):
    """Run the ranker and the reference side by side on one environment.

    Asserts equal displayed orders every trial and the same rng state at the
    end; returns both rankers.
    """
    env = np.random.default_rng([seed, n])
    q = random_lazy_q(env, n)
    means = env.uniform(0.0, 1.0, size=n)
    base = env.permutation(n) * 0.5 + 0.25
    utilities_at = {"list": lambda: base.tolist(), "ndarray": lambda: base,
                    "permuted": lambda: env.permutation(base)}[utilities]
    fast = EpsilonGreedyRanker(q, rng=np.random.default_rng(seed), explore_constant=c)
    ref = _ReferenceEpsilonGreedy(q, rng=np.random.default_rng(seed), explore_constant=c)
    for t in range(1, horizon + 1):
        u = utilities_at()
        order = fast.act(t, u)
        assert order == ref.act(t, u), f"trial {t}"
        pick = user_select(order, u, int(env.choice(n, p=q)) + 1)
        if payoffs == "bernoulli":
            payoff = float(env.random() < means[pick])
        else:
            payoff = float(env.normal(means[pick], 1.0))
        fast.feed(t, pick, payoff)
        ref.feed(t, pick, payoff)
    assert fast.rng.random() == ref.rng.random()
    return fast, ref


class TestEpsilonGreedyReference:
    @pytest.mark.parametrize("payoffs", ["gaussian", "bernoulli"])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_reference(self, n, payoffs):
        # Bernoulli payoffs tie many means; permuted utilities reset the cache
        for utilities in ("list", "ndarray", "permuted"):
            for c in (0.0, 0.05, 1.0, 1e9):
                _greedy_lockstep(n, payoffs, utilities, c, seed=n + 17)

    def test_explorations_count_pivot_rankings(self):
        fast, ref = _greedy_lockstep(5, "gaussian", "ndarray", 1e9, seed=3)
        assert fast.explorations == ref.explorations == 300
        fast, ref = _greedy_lockstep(5, "bernoulli", "list", 0.3, seed=4)
        assert fast.explorations == ref.explorations
        assert 0 < fast.explorations < 300
