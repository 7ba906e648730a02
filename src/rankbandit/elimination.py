"""Active-elimination ranker for stochastic payoffs and arbitrary window sequences.

The ranker keeps per-item payoff statistics and, each trial, rebuilds the
displayed ranking top-down: among the items still unplaced, those whose upper
confidence bound beats every lower confidence bound are contenders; the
least-played contender goes next, immediately followed by every unplaced item
of lower utility ("blocked": a user who can see past them can also see the
contender, and prefers it). Blocking is what lets one shared top slot explore
without giving up payoff at larger windows.

Because each pick takes every unplaced item of lower utility with it, the
unplaced items are always the top of the utility order: a suffix of the items
sorted by ascending utility. One pass therefore sweeps that order once. The
utilities must be pairwise distinct, as :func:`rankbandit.core.user_select`
requires and :class:`rankbandit.core.Instance` checks.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import OptimalFamily, Permutation


def find_permutation(rewards: Sequence[float], counts: Sequence[int], t: int,
                     delta: float, utilities: Sequence[float]) -> Permutation:
    """One top-down pass of the elimination rule at trial ``t``.

    Ties for the least-played contender break toward the lowest item index,
    and each blocked set is appended in ascending item index, so the output
    is a deterministic function of the statistics.

    With ``asc`` the items in ascending utility order, the unplaced items
    are always a suffix ``asc[s:]``: a pick at position ``k`` is followed by
    the blocked items ``asc[s:k]``, which leaves ``asc[k + 1:]``. So the
    largest lower bound among the unplaced items is a suffix maximum,
    computed once, and each pick is one scan of the current suffix. The
    utilities must be pairwise distinct.
    """
    n = len(counts)
    log_term = math.log(4.0 * n * t * t / delta)
    asc = np.argsort(utilities, kind="stable").tolist()
    # By position in asc: upper bound, (count, item) packed as count * n + item
    # so one integer comparison orders least-played then lowest index, and the
    # largest lower bound over the suffix starting there.
    upper = [math.inf] * n
    key = [0] * n
    sufmax = [0.0] * n
    best = -math.inf
    for k in range(n - 1, -1, -1):
        i = asc[k]
        c = counts[i]
        key[k] = c * n + i
        if c:
            mean = rewards[i] / c
            radius = math.sqrt(log_term / c)
            upper[k] = mean + radius
            low = mean - radius
            if low > best:
                best = low
        sufmax[k] = best

    out: list[int] = []
    s = 0
    while s < n:
        bound = sufmax[s]
        pick = -1
        for k in range(s, n):
            if upper[k] > bound and (pick < 0 or key[k] < key[pick]):
                pick = k
        if pick < 0:
            raise ValueError(f"no contender among {n - s} unplaced items at t={t}: "
                             "confidence radii vanish against the means")
        out.append(asc[pick])
        out.extend(sorted(asc[s:pick]))
        s = pick + 1
    return tuple(out)


class EliminationRanker:
    """Policy wrapper around :func:`find_permutation` with running statistics."""

    def __init__(self, n: int, delta: float):
        if n < 1:
            raise ValueError("n must be >= 1")
        if not 0 < delta <= 1:
            raise ValueError("delta must be in (0, 1]")
        self.delta = delta
        self.rewards = [0.0] * n
        self.counts = [0] * n

    def act(self, t: int, utilities: Sequence[float]) -> Permutation:
        return find_permutation(self.rewards, self.counts, t, self.delta, utilities)

    def feed(self, t: int, item: int, payoff: float) -> None:
        self.rewards[item] += payoff
        self.counts[item] += 1


def inversion_budget_value(gap: float, horizon: int, delta: float, n: int) -> float:
    """Pre-ceiling value ``16 log(4 n T^2 / delta) / gap^2`` of the inversion budget.

    Write ``L = log(4 n T^2 / delta)``; at any trial up to ``T`` item ``i``'s
    radius is ``r_i <= sqrt(L / c_i)``. Suppose
    the user, with window ``w``, selects ``y`` while the benchmark item ``s``
    of ``w`` has a mean larger by ``gap``. The selected item is always a
    pick. If ``y`` sits at (1-based) position ``p <= w``, the items placed
    before it are exactly the ``p - 1`` of lowest utility, and ``s`` has
    utility rank at least ``w - 1``, so ``s`` is still unplaced when ``y`` is
    picked. On the confidence event the best-mean unplaced item ``b``
    (``mu_b >= mu_s``) is a contender, so the least-played rule gives
    ``c_y <= c_b`` and hence ``r_b <= r_y``. ``y`` is a contender only while
    ``mu_s - mu_y <= mu_b - mu_y < 2 r_y + 2 r_b <= 4 r_y``, that is while
    ``c_y < 16 L / gap^2``. Each selection of ``y`` adds one to ``c_y``, so
    at most ``ceil(16 L / gap^2)`` selections of ``y`` happen that early.

    With noise-free estimates, ``4 L / gap^2`` is where a balanced adjacent
    pair is eliminated: roughly the median count, not a bound.
    """
    if gap <= 0:
        raise ValueError("gap must be positive")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    return 16.0 * math.log(4.0 * n * float(horizon) ** 2 / delta) / (gap * gap)


def inversion_budget(gap: float, horizon: int, delta: float, n: int) -> int:
    """Max times a specific worse item can be picked over a better benchmark item.

    ``ceil(16 log(4 n T^2 / delta) / gap^2)``. Picked as least-played, the
    worse item has the largest radius among the contenders; it stays a
    contender only while ``gap < 4 r_y``, and one more play shrinks ``r_y``
    each time (derivation in :func:`inversion_budget_value`).

    Holds on every run where all confidence intervals contain their true
    means throughout and every selection is fed back before the next trial
    (no delay wrapper). The bound is conditional on that event. For payoffs
    in ``[0, 1]``, Hoeffding's inequality with a union bound over items,
    counts and trials gives the event probability at least ``1 - delta``;
    for unit-variance Gaussian payoffs it does not (the union bound over
    the 10^5 updates of an ``n = 5``, ``delta = 0.01`` run sums to ~0.05).
    """
    return math.ceil(inversion_budget_value(gap, horizon, delta, n))


def confidence_event_holds(selected: Sequence[int], payoffs: Sequence[float],
                           means: Sequence[float], delta: float) -> bool:
    """Replay a trace and check every interval contained its true mean throughout.

    Each update is checked at the trial it lands on; radii only grow with t
    while the empirical mean stays put between updates, so this is the
    binding moment for the whole run.
    """
    n = len(means)
    rewards = [0.0] * n
    counts = [0] * n
    for t0 in range(len(selected)):
        t = t0 + 1
        y = int(selected[t0])
        rewards[y] += float(payoffs[t0])
        counts[y] += 1
        radius = math.sqrt(math.log(4.0 * n * t * t / delta) / counts[y])
        if abs(rewards[y] / counts[y] - means[y]) > radius:
            return False
    return True


def count_inversions(windows: Sequence[int], selected: Sequence[int],
                     family: OptimalFamily, means: Sequence[float]) -> dict[tuple[int, int], int]:
    """Count, per ordered pair, the trials where a strictly worse item was picked.

    Keyed by ``(benchmark item at that window, picked item)``; only pairs with
    a positive mean gap are counted.
    """
    windows = np.asarray(windows, dtype=np.int64)
    selected = np.asarray(selected, dtype=np.int64)
    means = np.asarray(means, dtype=float)
    bench_arr = np.asarray(family.benchmark_by_window, dtype=np.int64)
    bench = bench_arr[windows - 1]
    mask = means[bench] > means[selected]
    out: dict[tuple[int, int], int] = {}
    for s, y in zip(bench[mask].tolist(), selected[mask].tolist()):
        key = (s, y)
        out[key] = out.get(key, 0) + 1
    return out
