"""Rankers for adversarial payoffs under stochastic attention windows.

Two policies live here. The epsilon-greedy ranker needs a lazy window
distribution (non-increasing probabilities): a small family of pivot
rankings, mixed with closed-form weights, then makes every item equally
likely to be picked, which gives clean exploration. The mirror-descent
ranker works on selection marginals directly: it runs a bandit
linear-optimization loop over the polytope of achievable marginals with the
regularizer ``F(p) = -2 * sum(sqrt(p))``, realizing each iterate as a random
ranking drawn straight from the comonotone coupling of the marginals with the
window law: one uniform picks a rank in every window column, without building
the coupling matrix. The draw follows the mixture that
``rfsm_decompose(feasible_matrix(p, q))`` peels, which is its reference.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import Permutation, _family_from_arrays, items_by_rank, probability_vector
from .polytope import coupling_sample, window_suffix_bounds

_LAZY_TOL = 1e-12


class ProjectionError(RuntimeError):
    """The constrained mirror step failed to converge; carries the iterate."""


def pivot_permutation(i: int, n: int) -> Permutation:
    """Pivot ranking for rank ``i``: ``(i, i-1, ..., 0, i+1, ..., n-1)``.

    A window of length <= i+1 picks rank i; a longer window w picks rank w-1.
    """
    if not 0 <= i < n:
        raise ValueError(f"pivot rank {i} outside [0, {n - 1}]")
    return tuple(range(i, -1, -1)) + tuple(range(i + 1, n))


def lazy_alpha(q: Sequence) -> np.ndarray:
    """Mixture weights over pivot rankings that equalize selection marginals.

    Requires a lazy window distribution (``q`` non-increasing with
    ``q[0] > 0``); mixing ``pivot_permutation(i, n)`` with weight
    ``alpha[i]`` then picks every rank with probability exactly ``1/n``.
    Works with exact number types (e.g. ``fractions.Fraction``) as well as
    floats; the result dtype follows the input.
    """
    q = list(q)
    probability_vector(q)
    n = len(q)
    for a, b in zip(q, q[1:]):
        if b > a + _LAZY_TOL:
            raise ValueError("q must be non-increasing (lazy)")
    if q[0] <= 0:
        raise ValueError("q[0] must be positive")

    alpha = [1 / (n * q[0])]
    prev_partial = q[0]
    for i in range(1, n):
        partial = prev_partial + q[i]
        num = prev_partial - i * q[i]
        a = num / (n * prev_partial * partial)
        if a < -1e-9:
            raise ValueError("q must be non-increasing (lazy)")
        alpha.append(a if a > 0 else 0 * a)
        prev_partial = partial
    return np.asarray(alpha)


def pivot_marginals(alpha: Sequence, q: Sequence) -> np.ndarray:
    """Selection marginal of each rank under a pivot mixture (independent check)."""
    n = len(q)
    out = []
    partial_q = 0 * q[0]
    partial_a = 0 * alpha[0]
    for k in range(n):
        partial_q = partial_q + q[k]
        out.append(alpha[k] * partial_q + q[k] * partial_a)
        partial_a = partial_a + alpha[k]
    return np.asarray(out)


def _block_constant(g: Sequence[float], mass: float) -> float:
    """Solve ``sum((g_i + c)^-2) == mass`` for the unique root with all terms positive."""
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


def _solve_masses(g: list[float], lower: list[float], *, max_iter: int | None = None):
    """Minimize ``g @ p - 2 * sum(sqrt(p))`` over the suffix-bounded simplex.

    ``lower[j]`` bounds the mass on coordinates ``>= j`` from below, with
    ``lower[0] == 1`` acting as the total-mass equality. Active bounds split
    the coordinates into consecutive blocks whose masses are pinned, and each
    block solves to ``p_i = (g_i + c)^-2`` for a per-block constant; the
    active set grows on primal violations and merges on dual violations
    (the block constants must be non-increasing).
    """
    n = len(g)
    if max_iter is None:
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
            c = _block_constant(g[lo_i:hi_i], mass)
            constants.append(c)
            total = 0.0
            for i in range(lo_i, hi_i):
                d = g[i] + c
                p[i] = 1.0 / (d * d)
                total += p[i]
            # snap the block to its pinned mass so the equality and active
            # suffix bounds hold to machine precision, not root-solve precision
            scale = mass / total
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
    raise ProjectionError(f"no convergence after {max_iter} iterations; active={active}")


class MirrorDescent:
    """Bandit linear optimization over achievable selection marginals.

    Maintains a marginal vector ``p`` over utility ranks. Each feed performs
    the combined mirror step: minimize ``eta * <loss, p> + D(p, p_prev)``
    over the polytope, where ``D`` is the Bregman divergence of
    ``-2 * sum(sqrt(p))``. With a known horizon ``T`` the step size is
    ``sqrt(2 / (T n))``; otherwise the horizon guess doubles as needed.
    """

    def __init__(self, q: Sequence[float], *, horizon: int | None = None,
                 eta: float | None = None):
        self.q = probability_vector(q)
        self.n = int(self.q.size)
        bounds = window_suffix_bounds(self.q)
        self._bounds = bounds
        # ranks with no window short enough to ever pick them carry no mass
        prefix = np.cumsum(self.q)
        self._offset = int(np.searchsorted(prefix, 1e-15, side="right"))
        self._lower = [1.0] + [float(bounds[j]) for j in
                               range(self._offset + 1, self.n)]
        self._guess: int | None = None
        if eta is not None:
            self.eta = float(eta)
        elif horizon is not None:
            self.eta = math.sqrt(2.0 / (horizon * self.n))
        else:
            self._guess = 1024
            self.eta = math.sqrt(2.0 / (self._guess * self.n))
        self.t = 0
        self.p = self.project(np.full(self.n, 1.0 / self.n))

    def act(self) -> np.ndarray:
        return self.p.copy()

    def project(self, target: Sequence[float]) -> np.ndarray:
        """Bregman projection of a positive vector onto the marginal polytope."""
        target = np.asarray(target, dtype=float)
        g = [1.0 / math.sqrt(max(float(x), 1e-300))
             for x in target[self._offset:]]
        return self._finish(_solve_masses(g, self._lower))

    def feed(self, index: int | None = None, value: float = 0.0,
             dense: Sequence[float] | None = None) -> None:
        """Apply a loss estimate: one-sparse ``(index, value)`` or a dense vector."""
        self.t += 1
        if self._guess is not None and self.t > self._guess:
            self._guess *= 2
            self.eta = math.sqrt(2.0 / (self._guess * self.n))
        off = self._offset
        g = [0.0] * (self.n - off)
        for i in range(off, self.n):
            g[i - off] = 1.0 / math.sqrt(self.p[i])
        if dense is not None:
            for i in range(off, self.n):
                g[i - off] += self.eta * float(dense[i])
        elif index is not None:
            if index < off:
                raise ValueError(f"rank {index} can never be picked under this q")
            g[index - off] += self.eta * float(value)
        self.p = self._finish(_solve_masses(g, self._lower))

    def _finish(self, masses: list[float]) -> np.ndarray:
        p = np.zeros(self.n)
        p[self._offset:] = masses
        residual = self._kkt_residual(p)
        if residual > 1e-8:
            raise ProjectionError(f"KKT residual {residual:.3g} too large; p={p.tolist()}")
        return p

    def _kkt_residual(self, p: np.ndarray) -> float:
        bounds = self._bounds
        suffix = 0.0
        worst = 0.0
        for j in range(self.n - 1, 0, -1):
            suffix += float(p[j])
            v = float(bounds[j]) - suffix
            if v > worst:
                worst = v
        total = suffix + float(p[0])
        return max(worst, abs(total - 1.0))


class BLORanker:
    """Ranking policy driven by :class:`MirrorDescent`.

    Each trial: take the current marginals, draw one ranking from their
    comonotone coupling with ``q`` using a single uniform from ``rng``
    (:func:`~rankbandit.polytope.coupling_sample`; the reference is the
    mixture :func:`~rankbandit.polytope.rfsm_decompose` peels off
    :func:`~rankbandit.polytope.feasible_matrix`), and display it with ranks
    mapped back to item indices. On feedback, the picked item's rank gets
    the importance-weighted loss ``-payoff / p[rank]``, where ``p`` are the
    marginals the coupling realizes.

    With ``changing_utilities=True`` the per-trial utilities must be exactly
    a permutation of ``1..n`` (the rank encoding); learning then happens in
    rank space while item identities rotate underneath.
    """

    def __init__(self, q: Sequence[float], *, horizon: int | None = None,
                 eta: float | None = None, rng: np.random.Generator | None = None,
                 changing_utilities: bool = False):
        self.engine = MirrorDescent(q, horizon=horizon, eta=eta)
        self.rng = rng if rng is not None else np.random.default_rng()
        self.changing_utilities = changing_utilities
        self._fixed_maps: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._pending: tuple[np.ndarray, np.ndarray] | None = None
        self.last_marginals: np.ndarray | None = None

    def _rank_maps(self, utilities: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """(item -> rank, rank -> item) under the current utilities."""
        n = self.engine.n
        if self.changing_utilities:
            utilities = np.asarray(utilities, dtype=float)
            ranks = (utilities - 1.0).astype(np.int64)
            if np.any(utilities != ranks + 1.0) or \
                    sorted(ranks.tolist()) != list(range(n)):
                raise ValueError(
                    "changing utilities must be a permutation of 1..n (rank encoding)")
            by_rank = np.empty(n, dtype=np.int64)
            by_rank[ranks] = np.arange(n)
            return ranks, by_rank
        if self._fixed_maps is None:
            utilities = np.asarray(utilities, dtype=float)
            by_rank = items_by_rank(utilities)
            ranks = np.empty(n, dtype=np.int64)
            ranks[by_rank] = np.arange(n)
            self._fixed_maps = (utilities.copy(), ranks, by_rank)
        else:
            cached = self._fixed_maps[0]
            if any(cached[i] != utilities[i] for i in range(n)):
                raise ValueError(
                    "utilities changed mid-run; construct with changing_utilities=True")
        return self._fixed_maps[1], self._fixed_maps[2]

    def act(self, t: int, utilities: Sequence[float]) -> Permutation:
        ranks, by_rank = self._rank_maps(utilities)
        # the engine iterate satisfies its constraints only to solver tolerance;
        # renormalize, then weight losses by the marginals actually realized
        p = np.clip(self.engine.act(), 0.0, None)
        p /= p.sum()
        rank_order, realized = coupling_sample(p, self.engine.q, float(self.rng.random()))
        residual = float(np.max(np.abs(realized - p)))
        if residual > 1e-6:
            raise RuntimeError(f"coupling residual {residual:.3g} exceeds 1e-06")
        self.last_marginals = realized
        self._pending = (realized, ranks)
        return tuple(int(by_rank[r]) for r in rank_order)

    def feed(self, t: int, item: int, payoff: float) -> None:
        if self._pending is None:
            raise RuntimeError("feed before act")
        p, ranks = self._pending
        self._pending = None
        rank = int(ranks[item])
        self.engine.feed(rank, -float(payoff) / float(p[rank]))


def _default_epsilon(t: int, n: int, c: float = 1.0) -> float:
    return min(1.0, c * (n * math.log(t + 1.0) / t) ** (1.0 / 3.0))


class EpsilonGreedyRanker:
    """Explore with the pivot mixture, otherwise exploit the empirical optimum.

    At trial ``t`` a coin with bias ``eps_t`` decides between displaying a
    pivot ranking drawn from the lazy-alpha mixture (every item picked with
    probability ``1/n``) and the optimal-family representative under the
    empirical mean payoffs. The anytime rate is
    ``min(1, c * (n log(t+1) / t)^(1/3))``; with a known horizon the
    constant rate ``min(1, c * (n / T)^(1/3))`` is used instead. Both scale
    with ``c = explore_constant``; at the default ``c = 1`` the multiply is
    exact, so the anytime rate is the unscaled one bit for bit.
    """

    def __init__(self, q: Sequence[float], *, rng: np.random.Generator | None = None,
                 horizon: int | None = None, explore_constant: float = 1.0,
                 epsilon_fn=None):
        self.q = np.asarray(q, dtype=float)
        self.n = int(self.q.size)
        self.alpha = np.asarray(lazy_alpha(self.q), dtype=float)
        self.rng = rng if rng is not None else np.random.default_rng()
        self.rewards = [0.0] * self.n
        self.counts = [0] * self.n
        if epsilon_fn is not None:
            self._epsilon = epsilon_fn
        elif horizon is not None:
            rate = min(1.0, explore_constant * (self.n / horizon) ** (1.0 / 3.0))
            self._epsilon = lambda t: rate
        else:
            self._epsilon = lambda t: _default_epsilon(t, self.n, explore_constant)

    def act(self, t: int, utilities: Sequence[float]) -> Permutation:
        if self.rng.random() < self._epsilon(t):
            pivot = int(self.rng.choice(self.n, p=self.alpha / self.alpha.sum()))
            rank_order = pivot_permutation(pivot, self.n)
            by_rank = items_by_rank(utilities)
            return tuple(int(by_rank[r]) for r in rank_order)
        means = [self.rewards[i] / self.counts[i] if self.counts[i] else 0.0
                 for i in range(self.n)]
        return _family_from_arrays(list(utilities), means, strict=False).representative

    def feed(self, t: int, item: int, payoff: float) -> None:
        self.rewards[item] += payoff
        self.counts[item] += 1
