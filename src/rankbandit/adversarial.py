"""Rankers for adversarial payoffs under stochastic attention windows.

Two policies live here. The epsilon-greedy ranker needs a lazy window
distribution (non-increasing probabilities): a small family of pivot
rankings, mixed with closed-form weights, then makes every item equally
likely to be picked, which gives clean exploration. The mirror-descent
ranker works on selection marginals directly: it runs a bandit
linear-optimization loop over the polytope of achievable marginals with the
regularizer ``F(p) = -2 * sum(sqrt(p))``. The iterate is a plain list of
marginals over utility ranks. Each trial realizes it as a random ranking drawn
straight from the comonotone coupling of the marginals with the window law:
one uniform picks a rank in every window column, without building the
coupling matrix. ``CouplingSampler`` lays out the window columns once per
ranker and the marginals' side once per iterate; ``feasible_matrix(p, q)`` is
its dense view, and the mixture ``rfsm_decompose`` peels off that matrix is
the draw's reference. The feedback is a one-sparse loss,
``feed(index, value)``, on the picked rank.

The mirror-descent ranker learns over utility ranks, not items: each ``act``
maps ranks to the items that hold them under the utilities it is shown, so
those may change between trials.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

import numpy as np

from .core import (
    Permutation, _check_payoff, _family_from_arrays, _see_utilities, probability_vector,
)
from .environments import _blocks
from .polytope import CouplingSampler, window_suffix_bounds

_LAZY_TOL = 1e-12


class ProjectionError(RuntimeError):
    """The constrained mirror step failed; names the step and carries the iterate."""


def lazy_alpha(q: Sequence) -> np.ndarray:
    """Mixture weights over pivot rankings that equalize selection marginals.

    Requires a lazy window distribution (``q`` non-increasing with
    ``q[0] > 0``). The pivot ranking of rank ``i`` shows ranks ``i, i-1,
    ..., 0`` and then ``i+1, ..., n-1``: a window of length at most ``i+1``
    picks rank ``i``, and a longer window ``w`` picks rank ``w-1``. Mixing
    the pivot rankings with weights ``alpha`` then picks every rank with
    probability exactly ``1/n``.
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


def _block_root(g: Sequence[float], mass: float, gmin: float, lo: float) -> float:
    """Solve ``sum((g_i + c)^-2) == mass`` for the unique root with all terms
    positive, given ``gmin = min(g)`` and the bracket's low end
    ``lo = -gmin + 1 / sqrt(mass)``, where the sum is at least ``mass``.

    Newton starts at ``c = 0`` when the bracket holds it, otherwise at the
    bracket's midpoint: with ``g_i = 1 / sqrt(p_i)`` the root of the last
    iterate's block is 0, and a one-sparse loss moves it little.
    """
    if len(g) == 1:
        return lo
    hi = -gmin + math.sqrt(len(g) / mass)       # sum <= mass here
    c = 0.0 if lo < 0.0 < hi else 0.5 * (lo + hi)
    h_tol = 1e-12 * mass
    for _ in range(100):
        h = -mass
        slope = 0.0
        for x in g:
            d = x + c
            inv2 = 1.0 / (d * d)
            h += inv2
            slope += inv2 / d
        dh = -2.0 * slope  # doubling is exact, so this is the sum of -2 inv2 / d
        if h > 0:
            lo = c
        else:
            hi = c
        if hi - lo <= 1e-15 * (1.0 + abs(c)) or abs(h) < h_tol:
            break
        step = c - h / dh
        c = step if lo < step < hi else 0.5 * (lo + hi)
    return c


def _block_terms(g: Sequence[float], mass: float) -> tuple[float, list[float]]:
    """The block constant ``c`` of :func:`_block_root` and the terms ``(g_i + c)^-2``.

    When ``min(g) * sqrt(mass)`` is above about 1e16, the bracket's low end
    ``-gmin + 1 / sqrt(mass)`` rounds to ``-gmin``: the bracket has
    collapsed, and a direct solve can divide by zero, or return a root whose
    terms miss ``mass`` by far. Such a block is solved on the offsets
    ``g_i - gmin``, whose minimum is exactly 0, for ``c + gmin``, and its
    terms are formed from the offsets, so no ``g_i + c`` cancels in
    rounding. Every other block keeps the root and terms of the direct
    solve. Both go through the one solver, :func:`_block_root`.
    """
    gmin = min(g)
    lo = -gmin + 1.0 / math.sqrt(mass)
    if lo != -gmin:
        c = _block_root(g, mass, gmin, lo)
        return c, [1.0 / ((x + c) * (x + c)) for x in g]
    offsets = [x - gmin for x in g]
    shifted = _block_root(offsets, mass, 0.0, 1.0 / math.sqrt(mass))
    return shifted - gmin, [1.0 / ((x + shifted) * (x + shifted)) for x in offsets]


def _solve_masses(g: list[float], lower: list[float]) -> tuple[list[float], float]:
    """Minimize ``g @ p - 2 * sum(sqrt(p))`` over the suffix-bounded simplex.

    ``lower[j]`` bounds the mass on coordinates ``>= j`` from below, with
    ``lower[0] == 1`` acting as the total-mass equality. Active bounds split
    the coordinates into consecutive blocks whose masses are pinned, and each
    block solves to ``p_i = (g_i + c)^-2`` for a per-block constant; the
    active set grows on primal violations and merges on dual violations
    (the block constants must be non-increasing).

    Returns ``p`` and its KKT residual: the largest of ``|sum(p) - 1|`` and
    the shortfalls ``lower[j] - sum(p[j:])``, read off the last primal scan.
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
            block = g[lo_i:hi_i]
            try:
                c, terms = _block_terms(block, mass)
                total = 0.0
                for x in terms:
                    total += x
                # snap the block to its pinned mass so the equality and active
                # suffix bounds hold to machine precision, not root-solve precision
                scale = mass / total
            except ZeroDivisionError:
                # _block_terms divided by zero, directly or on the offsets
                raise ProjectionError(
                    f"block {lo_i}..{hi_i - 1} is not solvable in double precision; "
                    f"g={g}; p={p}") from None
            constants.append(c)
            p[lo_i:hi_i] = [x * scale for x in terms]

        # primal: find the most violated inactive suffix bound
        suffix = 0.0
        worst_j, worst_v = -1, 1e-11
        shortfall = 0.0
        active_set = set(active)
        for j in range(n - 1, 0, -1):
            suffix += p[j]
            v = lower[j] - suffix
            if v > shortfall:
                shortfall = v
            if v > worst_v and j not in active_set:
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
        # the total comes first so that a NaN mass fails the check
        return p, max(abs(suffix + p[0] - 1.0), shortfall)
    raise ProjectionError(
        f"no convergence after {max_iter} iterations; active={active}; p={p}")


class MirrorDescent:
    """Bandit linear optimization over achievable selection marginals.

    Maintains a marginal vector ``p`` over utility ranks, a plain list read
    as ``engine.p``. Each ``feed(index, value)`` takes the combined mirror
    step on the one-sparse loss ``value`` at rank ``index``: minimize
    ``eta * <loss, p> + D(p, p_prev)`` over the polytope, where ``D`` is the
    Bregman divergence of ``-2 * sum(sqrt(p))``. The first iterate is the
    projection of the uniform vector. The step size is ``eta`` when given,
    otherwise ``sqrt(2 / (T n))`` for the horizon ``T``; one of the two is
    required.

    A zero loss takes no step: the minimizer of ``D(p, p_prev)`` alone is
    ``p_prev``, so ``feed`` counts the trial and keeps the same ``p`` list.
    Any other loss starts each block's Newton solve at the last iterate's
    root where the bracket holds it (see :func:`_block_root`).
    """

    def __init__(self, q: Sequence[float], *, horizon: int | None = None,
                 eta: float | None = None):
        self.q = probability_vector(q)
        self.n = int(self.q.size)
        # ranks with no window short enough to ever pick them carry no mass
        prefix = np.cumsum(self.q)
        self._offset = int(np.searchsorted(prefix, 1e-15, side="right"))
        bounds = window_suffix_bounds(self.q)
        self._lower = [1.0] + bounds[self._offset + 1:].tolist()
        if eta is not None:
            self.eta = float(eta)
        elif horizon is not None:
            self.eta = math.sqrt(2.0 / (horizon * self.n))
        else:
            raise ValueError("mirror descent needs a horizon or an eta")
        self.t = 0
        self.p = self._step([1.0 / math.sqrt(1.0 / self.n)] * (self.n - self._offset))

    def feed(self, index: int, value: float) -> None:
        """Mirror step on the loss that is ``value`` at rank ``index`` and 0 elsewhere."""
        self.t += 1
        off = self._offset
        if index < off:
            raise ValueError(f"rank {index} can never be picked under this q")
        if value == 0.0:
            return
        g = [1.0 / math.sqrt(x) for x in self.p[off:]]
        g[index - off] += self.eta * value
        self.p = self._step(g)

    def _step(self, g: list[float]) -> list[float]:
        """Solve the mirror step from ``g`` and check the solver's KKT residual."""
        try:
            masses, residual = _solve_masses(g, self._lower)
        except ProjectionError as err:
            raise ProjectionError(f"mirror step {self.t}: {err}") from None
        if not residual <= 1e-8:
            raise ProjectionError(f"mirror step {self.t}: KKT residual {residual:.3g} "
                                  f"exceeds 1e-08; p={masses}")
        return [0.0] * self._offset + masses


class BLORanker:
    """Ranking policy driven by :class:`MirrorDescent`.

    Each trial: read the engine's list of marginals, draw one ranking from
    their comonotone coupling with ``q`` using a single uniform from ``rng``
    (:class:`~rankbandit.polytope.CouplingSampler`; the reference is the
    mixture :func:`~rankbandit.polytope.rfsm_decompose` peels off
    :func:`~rankbandit.polytope.feasible_matrix`), and display it with ranks
    mapped back to item indices. On feedback, the picked item's rank gets
    the one-sparse, importance-weighted loss ``-payoff / p[rank]``, where
    ``p`` are the marginals the coupling realizes (``last_marginals``); a
    non-finite loss raises before any state changes.

    The sampler's window segments depend on ``q`` only, so they are laid
    out once, here. The coupling's cumulatives, its realized marginals and
    their residual check depend on the iterate only, so they are built once
    per iterate: when ``engine.p`` is a new list. A zero payoff keeps the
    same list, and so does the coupling; such a trial only searches each
    column's pick for its one uniform.

    ``rng`` is read in blocks of uniforms that grow from 32 to ``BLOCK``
    (:func:`~rankbandit.environments._blocks`), the same doubles as one
    ``random()`` per trial, and ``act`` takes the next one. So the
    generator's state after an ``act`` is not one draw further on: it is the
    end of the last block read.

    Learning happens in utility-rank space, so the utilities may change from
    trial to trial: ``act`` maps ranks to the items that hold them now, and
    ``feed`` charges the rank the item held at that ``act``. The maps are
    rebuilt when the utilities differ from the last ones; the same read-only
    array as last time is not compared again.
    """

    def __init__(self, q: Sequence[float], *, horizon: int | None = None,
                 eta: float | None = None, rng: np.random.Generator):
        self.engine = MirrorDescent(q, horizon=horizon, eta=eta)
        self.n = self.engine.n
        self._uniforms = _blocks(rng.random)
        self._sampler = CouplingSampler(self.engine.q)
        self._shown = None
        self._utilities: list | None = None
        self._maps: tuple[list[int], list[int]] | None = None
        self._coupled: list[float] | None = None  # the iterate _sampler couples
        self._pending: tuple[list[float], list[int]] | None = None
        self.last_marginals: list[float] | None = None

    def _rebuild(self, by_rank: list[int], ranks: list[int]) -> None:
        self._maps = (ranks, by_rank)

    def act(self, t: int, utilities: Sequence[float]) -> Permutation:
        if utilities is not self._shown or utilities.flags.writeable:
            _see_utilities(self, utilities)
        ranks, by_rank = self._maps
        p = self.engine.p
        sampler = self._sampler
        if p is not self._coupled:
            sampler.couple(p)
            if sampler.residual > 1e-6:
                raise RuntimeError(f"osmd trial {t}: coupling residual "
                                   f"{sampler.residual:.3g} exceeds 1e-06")
            self._coupled = p
            self.last_marginals = sampler.realized
        self._pending = (self.last_marginals, ranks)
        return sampler.draw(next(self._uniforms), by_rank)

    def feed(self, t: int, item: int, payoff: float) -> None:
        if self._pending is None:
            raise RuntimeError("feed before act")
        p, ranks = self._pending
        rank = ranks[item]
        loss = -float(payoff) / p[rank]
        if not math.isfinite(loss):
            _check_payoff(t, item, payoff)
            raise ValueError(f"trial {t}: payoff {payoff!r} for item {item} gives loss {loss!r}")
        self._pending = None
        self.engine.feed(rank, loss)


def _default_epsilon(t: int, n: int, c: float = 1.0) -> float:
    return min(1.0, c * (n * math.log(t + 1.0) / t) ** (1.0 / 3.0))


class EpsilonGreedyRanker:
    """Explore with the pivot mixture, otherwise exploit the empirical optimum.

    At trial ``t`` a coin with bias ``eps_t`` decides between displaying a
    pivot ranking drawn from the lazy-alpha mixture (every item picked with
    probability ``1/n``) and the optimal-family representative under the
    empirical mean payoffs (0.0 for an item never fed). The rate is
    ``min(1, c * (n log(t+1) / t)^(1/3))`` with ``c = explore_constant``; at
    the default ``c = 1`` the multiply is exact, so the rate is the unscaled
    one bit for bit.

    The exploit ranking is cached. Its family walks the kept utility order
    and reads only the ``>``/``<``/``==`` pattern of the empirical means, so
    it is rebuilt when ``act`` sees new utilities, or
    after ``feed`` moves the fed item's mean across, onto or off another
    item's mean. The pivot rankings are mapped to items when the utilities
    change, and the draw inverts a CDF computed once, as ``Generator.choice``
    does, so it picks the same pivot from the same one uniform.
    ``explorations`` counts the trials that showed a pivot ranking. A payoff
    that makes the item's payoff sum non-finite raises.

    The coin and the pivot's uniform come, in that order, from ``rng`` read
    in blocks of uniforms that grow from 32 to ``BLOCK``
    (:func:`~rankbandit.environments._blocks`): the same doubles as one
    ``random()`` per use. So the generator's state after an ``act`` is not
    one or two draws further on: it is the end of the last block read.
    """

    def __init__(self, q: Sequence[float], *, rng: np.random.Generator,
                 explore_constant: float = 1.0):
        q = np.asarray(q, dtype=float)
        self.n = int(q.size)
        alpha = np.asarray(lazy_alpha(q), dtype=float)
        cdf = np.cumsum(alpha / alpha.sum())
        cdf /= cdf[-1]
        self._cdf = cdf.tolist()
        self._uniforms = _blocks(rng.random)
        self.explore_constant = explore_constant
        self.rewards = [0.0] * self.n
        self.counts = [0] * self.n
        self.explorations = 0
        self._means = [0.0] * self.n
        self._shown = None
        self._utilities: list | None = None
        self._by_rank: list[int] = []  # the item of each utility rank
        self._explore: list[Permutation] = []  # the pivot rankings, in items
        self._representative: Permutation | None = None

    def act(self, t: int, utilities: Sequence[float]) -> Permutation:
        if utilities is not self._shown or utilities.flags.writeable:
            _see_utilities(self, utilities)
        uniforms = self._uniforms
        if next(uniforms) < _default_epsilon(t, self.n, self.explore_constant):
            self.explorations += 1
            return self._explore[bisect.bisect_right(self._cdf, next(uniforms))]
        if self._representative is None:
            self._representative = _family_from_arrays(
                self._by_rank, self._means, strict=False).representative
        return self._representative

    def _rebuild(self, by_rank: list[int], ranks: list[int]) -> None:
        self._by_rank = by_rank
        self._explore = [tuple(by_rank[i::-1] + by_rank[i + 1:]) for i in range(self.n)]
        self._representative = None

    def feed(self, t: int, item: int, payoff: float) -> None:
        total = self.rewards[item] + payoff
        if not math.isfinite(total):
            raise ValueError(f"trial {t}: payoff {payoff!r} for item {item} makes "
                             "its payoff sum non-finite")
        self.rewards[item] = total
        self.counts[item] += 1
        old = self._means[item]
        new = self._means[item] = self.rewards[item] / self.counts[item]
        if self._representative is None:
            return
        if old < new:
            lo, hi = old, new
        elif new < old:
            lo, hi = new, old
        else:
            return
        # the pattern moves iff another mean lies in [lo, hi]
        for j, m in enumerate(self._means):
            if lo <= m <= hi and j != item:
                self._representative = None
                return
