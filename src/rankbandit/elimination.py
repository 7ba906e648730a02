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
sorted by ascending utility. The ranker therefore keeps its statistics by
position in that order, with a list of the positions sorted least-played
first and then by item index; ``feed`` updates them in place and ``act``
rebuilds them only when the utilities change. A pick at position ``k`` from
start ``s`` places ``asc[k]`` and then the blocked set ``asc[s:k]`` sorted by
item index. The ranker builds each such list once, at the first pass that
needs it, and keeps it until the utilities change: at most
``n (n + 1) / 2`` of them.

No lower bound exceeds one ceiling, the largest mean less the radius at the
largest count, since a smaller count has a larger radius. The ranker keeps
the largest and the smallest mean between passes: ``feed`` changes one mean,
so a new mean beyond a kept one replaces it, and a kept one that the fed
position held and left is taken again. When the smallest mean plus the
radius at the largest count beats the ceiling, every upper bound does
(rounding is monotone), so every unplaced position is a contender, and the
pass walks the least-played-first order once, taking each position not yet
placed, at the cost of one radius in all. Otherwise the pass computes every
seen position's bound and follows the rule from the first position. The
utilities must be pairwise distinct, as :func:`rankbandit.core.user_select`
requires; ``act`` checks them, as :class:`rankbandit.core.Instance` does.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Sequence

import numpy as np

from .core import OptimalFamily, Permutation, _see_utilities


def find_permutation(ranker: EliminationRanker, t: int) -> Permutation:
    """One top-down pass of the elimination rule at trial ``t``.

    Reads the ranker's statistics, kept by position in the ascending utility
    order ``asc``: the unplaced items are always a suffix ``asc[s:]``, since a
    pick at position ``k`` is followed by the blocked items ``asc[s:k]``,
    which leaves ``asc[k + 1:]``. The pick at ``s`` is the first position at
    or after ``s``, least-played first and then lowest item index, whose
    upper bound beats the largest lower bound over the suffix.

    With ``L = log(4 n t^2 / delta)`` and ``radius = sqrt(L / most)``,
    ``most`` the largest count, read at the last of the positions ``_ks``
    sorted least-played first, every lower bound is at most the ceiling
    ``max(means) - radius``: a seen position's count is at most ``most``, and
    division, ``sqrt`` and subtraction round monotonically. ``max(means)`` is
    the ranker's kept ``_top``, the same float as the maximum taken afresh.

    The pass takes one of two paths. If ``min(means) + radius`` beats the
    ceiling, so does every upper bound, since a seen position has a mean at
    least ``min(means)`` (the kept ``_bottom``) and a count at most ``most``,
    and division, ``sqrt`` and addition round monotonically. Every unplaced
    position is then a contender, and the picks come from one forward walk
    over ``_ks`` that computes no other bound. Otherwise the pass computes
    every seen position's bound and follows the rule from position 0. Both
    paths append, per pick, the ranker's stored list of the pick and its
    blocked set sorted by item index, so the output is a deterministic
    function of the statistics.
    """
    asc = ranker._asc
    n = len(asc)
    if t < 1 or not n:
        raise ValueError(f"trial index t={t} is below 1" if t < 1 else
                         "the ranker has no utility order yet: act must run first")
    counts = ranker._counts
    means = ranker._means
    ks = ranker._ks
    blocked = ranker._blocked
    log_term = math.log(4.0 * n * t * t / ranker.delta)
    most = counts[ks[-1]]
    if most:
        radius = math.sqrt(log_term / most)
        certified = ranker._bottom + radius > ranker._top - radius
    else:
        certified = True
    out: list[int] = []
    s = 0
    if certified:
        for k in ks:
            if k >= s:
                out += blocked[s, k]
                s = k + 1
                if s == n:
                    break
        return tuple(out)

    # the exact rule: by position, the upper bound and the largest lower
    # bound over the suffix starting there
    upper = [math.inf] * n
    sufmax = [0.0] * n
    best = -math.inf
    for k in range(n - 1, -1, -1):
        c = counts[k]
        if c:
            mean = means[k]
            radius = math.sqrt(log_term / c)
            upper[k] = mean + radius
            low = mean - radius
            if low > best:
                best = low
        sufmax[k] = best

    while s < n:
        bound = sufmax[s]
        for k in ks:
            if k >= s and upper[k] > bound:
                break
        else:
            raise ValueError(f"no contender among {n - s} unplaced items at t={t}: "
                             "confidence radii vanish against the means")
        out += blocked[s, k]
        s = k + 1
    return tuple(out)


class _BlockedSets(dict):
    """``[asc[k]] + sorted(asc[s:k])`` by ``(s, k)``: the pick at position
    ``k`` from start ``s`` and its blocked set, built at the first lookup."""

    def __init__(self, asc: list[int]):
        super().__init__()
        self.asc = asc

    def __missing__(self, key: tuple[int, int]) -> list[int]:
        s, k = key
        asc = self.asc
        placed = self[key] = [asc[k]] + sorted(asc[s:k])
        return placed


class EliminationRanker:
    """Running statistics and the elimination pass :func:`find_permutation`.

    ``rewards`` and ``counts`` hold each item's payoff sum and selection
    count. Beside them the ranker keeps, by position in ascending utility
    order, the counts and the means ``rewards[i] / counts[i]`` (0.0 while
    unseen), and ``_ks``, the positions sorted least-played first, then by
    item index. ``_first[c]`` is how many positions have a count below
    ``c``, so the positions of count ``c`` are ``_ks[_first[c]:_first[c + 1]]``;
    the list has the largest count plus two entries. ``_blocked`` holds
    ``[asc[k]] + sorted(asc[s:k])``, a pick and its blocked set, for each
    ``(s, k)`` a pass has needed, ``k == s`` included. ``_top`` is
    ``max(_means)`` and ``_bottom`` is ``min(_means)``; the pass compares
    them to take either its certified walk or the exact rule.

    ``feed`` updates the fed item's entries in place. Its count grows by
    one, so its position leaves the block of count ``c - 1`` for the block of
    count ``c``, where one bisection by item places it, and ``_first[c]``
    falls by one. A new mean above ``_top`` replaces it; ``_top`` is taken
    again with ``max`` only when the fed position held it and its mean
    fell, so it keeps ``max``'s result. ``_bottom`` mirrors it: a new mean
    below it replaces it, and ``min`` runs again only when the fed position
    held it and its mean rose. Every mean is finite: a payoff that
    makes the item's payoff sum non-finite raises before anything changes.
    ``act`` rebuilds all of it from ``rewards`` and ``counts``, with an
    empty ``_blocked``, when the utilities differ by value from the last
    ones it saw, and on its first call. The same read-only array as
    last time is not compared again.
    """

    def __init__(self, n: int, delta: float):
        if n < 1:
            raise ValueError("n must be >= 1")
        if not 0 < delta <= 1:
            raise ValueError("delta must be in (0, 1]")
        self.n = n
        self.delta = delta
        self.rewards = [0.0] * n
        self.counts = [0] * n
        self._shown = None  # the last utilities if no one can write to them
        self._utilities: list | None = None
        self._asc: list[int] = []  # item at each position
        self._pos: list[int] = []  # position of each item
        self._counts: list[int] = []
        self._means: list[float] = []
        self._top = -math.inf  # max(_means)
        self._bottom = math.inf  # min(_means)
        self._ks: list[int] = []  # positions, least-played first, then by item
        self._first: list[int] = []  # how many positions have a count below c
        self._blocked = _BlockedSets([])

    def act(self, t: int, utilities: Sequence[float]) -> Permutation:
        if utilities is not self._shown or utilities.flags.writeable:
            _see_utilities(self, utilities)
        return find_permutation(self, t)

    def _rebuild(self, asc: list[int], pos: list[int]) -> None:
        counts = [self.counts[i] for i in asc]
        self._asc = asc
        self._pos = pos
        self._counts = counts
        self._means = means = [self.rewards[i] / c if c else 0.0
                               for i, c in zip(asc, counts)]
        self._top = max(means)
        self._bottom = min(means)
        self._ks = sorted(range(self.n), key=lambda k: (counts[k], asc[k]))
        first = [0] * (max(counts) + 2)
        for c in counts:
            first[c + 1] += 1
        self._first = list(itertools.accumulate(first))
        self._blocked = _BlockedSets(asc)

    def feed(self, t: int, item: int, payoff: float) -> None:
        total = self.rewards[item] + payoff
        if not math.isfinite(total):
            raise ValueError(f"trial {t}: payoff {payoff!r} for item {item} makes "
                             "its payoff sum non-finite")
        self.rewards[item] = total
        c = self.counts[item] + 1
        self.counts[item] = c
        if self._utilities is None:
            return  # the ordered state is built at the first act
        k = self._pos[item]
        self._counts[k] = c
        means = self._means
        old = means[k]
        mean = means[k] = self.rewards[item] / c
        top = self._top
        if mean > top:
            self._top = mean
        elif old == top and mean < old:  # the fed position held the largest mean
            self._top = max(means)
        bottom = self._bottom
        if mean < bottom:
            self._bottom = mean
        elif old == bottom and mean > old:  # the fed position held the smallest mean
            self._bottom = min(means)
        ks = self._ks
        del ks[ks.index(k)]
        first = self._first
        if c + 1 == len(first):
            first.append(first[-1])
        first[c] -= 1
        # the other positions of count c are now ks[first[c]:first[c + 1] - 1],
        # sorted by item
        ks.insert(bisect.bisect_left(ks, item, first[c], first[c + 1] - 1,
                                     key=self._asc.__getitem__), k)


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
