"""The polytope of mixed selection matrices and its decomposition machinery.

Everything here lives in utility-rank space: row ``i`` of a matrix stands for
the item of utility rank ``i`` (0 = lowest), column ``w-1`` for window length
``w``. A matrix is admissible when

* C.1 — entries lie in [0, 1];
* C.2 — every column sums to 1;
* C.3 — rank ``i`` is never picked by a window longer than ``i+1``
  (entries strictly above the diagonal are zero);
* C.4 — for every rank ``j >= 1``, the mass on ranks ``>= j`` is
  non-decreasing in the window length (a longer window can only push the
  pick toward higher utility).

Admissible matrices are exactly the convex hull of the selection matrices of
single rankings, and the greedy peeling below constructs an explicit convex
combination using at most ``z - n + 1`` rankings for a matrix with ``z``
nonzero entries. The peeling holds every column's picked cell in one array,
peels a round's weight off all of them in one array step, moves down only the
columns whose cell that step empties, sums the matrix only when every picked cell
is dust (a float sum of non-negative cells is never below its largest cell),
and builds the rankings from the recorded picks after the last round, in one
array pass for the rows that need no search. The check accepts an admissible
matrix with four array reductions and scans for every violation only when one
fails, so the work around the peel costs a fraction of the peel itself.

The coupling of target marginals with a window law is built from three
helpers: the window columns of ``q``, the clamped cumulatives of the target
and the rank of a degenerate column. :class:`CouplingSampler` draws rankings
from it, and :func:`feasible_matrix` is its dense view; neither pays for what
only the other reads.
"""

from __future__ import annotations

import copyreg
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import sub
from typing import Sequence

import numpy as np

from .core import Permutation, probability_vector, selection_matrix

ZERO_SNAP = 1e-12
# feasible_matrix: the suffix deficit a target may show, and the largest
# entry of |P q - p| it accepts from the coupling
FEASIBILITY_TOL = 1e-9
COUPLING_RESIDUAL_TOL = 1e-8


class _StatefulError(ValueError):
    """An error whose ``__init__`` builds its message from its attributes.

    Unpickling rebuilds it from its ``args`` and attributes as they are,
    without calling ``__init__`` again, so the type, the message (also one
    rewritten into ``args``) and the attributes cross a process boundary.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class InadmissibleMatrixError(_StatefulError):
    def __init__(self, report: "AdmissibilityReport"):
        self.report = report
        super().__init__(f"matrix is not admissible: {report.first}")


class InfeasibleTargetError(_StatefulError):
    """Target selection marginals cannot be realized by any admissible matrix."""

    def __init__(self, suffix_start: int, required: float, actual: float):
        self.suffix_start = suffix_start
        self.required = required
        self.actual = actual
        super().__init__(
            f"marginals infeasible: mass on ranks >= {suffix_start} is "
            f"{actual:.12g} but every admissible matrix yields >= {required:.12g}"
        )


@dataclass(frozen=True)
class ConstraintViolation:
    constraint: str  # "C.1" .. "C.4"
    location: tuple[int, ...]  # ranks 0-based, window lengths 1-based
    amount: float

    def __str__(self) -> str:
        return f"{self.constraint} violated at {self.location} by {self.amount:.3g}"


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    violations: tuple[ConstraintViolation, ...]

    @property
    def first(self) -> ConstraintViolation | None:
        return self.violations[0] if self.violations else None


def admissibility_report(P, atol: float = 1e-9) -> AdmissibilityReport:
    """Check C.1-C.4 and report every violation, scanned in constraint order.

    An admissible matrix is accepted by four array reductions over the
    scan's own expressions, C.1 through the smallest and largest entry (a
    NaN fails both comparisons, so it always reaches the scan); only a
    matrix that fails one of them is scanned for every violation.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {P.shape}")
    col_sums = P.sum(axis=0)
    upper = np.abs(np.triu(P, k=1))
    suffix = np.cumsum(P[::-1], axis=0)[::-1]
    if not P.size or (P.min() >= -atol and P.max() <= 1.0 + atol
                      and not (np.abs(col_sums - 1.0) > atol).any()
                      and not (upper > atol).any()
                      and not (suffix[1:, :-1] > suffix[1:, 1:] + atol).any()):
        return AdmissibilityReport(ok=True, violations=())
    bad: list[ConstraintViolation] = []

    # NaN fails both comparisons, so every non-finite entry is reported here
    for i, c in zip(*np.where(~((P >= -atol) & (P <= 1.0 + atol)))):
        excess = P[i, c] - 1.0 if P[i, c] > 1.0 else -P[i, c]
        bad.append(ConstraintViolation("C.1", (int(i), int(c) + 1), float(excess)))

    for c in np.where(np.abs(col_sums - 1.0) > atol)[0]:
        bad.append(ConstraintViolation("C.2", (int(c) + 1,), float(abs(col_sums[c] - 1.0))))

    for i, c in zip(*np.where(upper > atol)):
        bad.append(ConstraintViolation("C.3", (int(i), int(c) + 1), float(abs(P[i, c]))))

    for j, c in zip(*np.where(suffix[1:, :-1] > suffix[1:, 1:] + atol)):
        j = int(j) + 1
        c = int(c)
        bad.append(ConstraintViolation(
            "C.4", (j, c + 1, c + 2), float(suffix[j, c] - suffix[j, c + 1])))

    return AdmissibilityReport(ok=not bad, violations=tuple(bad))


def is_admissible(P) -> bool:
    return admissibility_report(P).ok


def rank_selection_matrix(order: Permutation) -> np.ndarray:
    """Selection matrix of a ranking of rank labels (utility = label value)."""
    return selection_matrix(order, range(len(order)))


def _permutation_from_picks(picks: list[int]) -> Permutation:
    """Ranking whose selection matrix picks ``picks[w-1]`` at window ``w``.

    Position ``w`` gets that column's pick if unplaced, otherwise the lowest
    unplaced rank (which cannot disturb any later pick).
    """
    n = len(picks)
    placed = [False] * n
    out: list[int] = []
    cursor = 0  # everything below is placed
    for c in range(n):
        i = picks[c]
        if placed[i]:
            while placed[cursor]:
                cursor += 1
            i = cursor
        out.append(i)
        placed[i] = True
    return tuple(out)


@dataclass(frozen=True)
class Decomposition:
    """A convex combination of rankings, in rank-label space."""

    weights: np.ndarray
    permutations: tuple[Permutation, ...]

    def __post_init__(self):
        w = probability_vector(self.weights, name="weights")
        if len(w) != len(self.permutations):
            raise ValueError("weights and permutations must align")
        if np.any(w <= 0):
            raise ValueError("weights must be strictly positive")
        object.__setattr__(self, "weights", w)

    def matrix(self) -> np.ndarray:
        out = np.zeros((len(self.permutations[0]),) * 2)
        for w, order in zip(self.weights, self.permutations):
            out += w * rank_selection_matrix(order)
        return out


def _rankings_from_picks(picks: np.ndarray) -> tuple[Permutation, ...]:
    """:func:`_permutation_from_picks` of every row of ``picks`` (rounds by columns).

    A row that never steps down and picks ``pick[c] >= c`` in every column
    needs no search: a repeated pick at position ``c`` is filled with the
    lowest unplaced rank, which is at most ``c <= pick[c]`` and so below
    every later new pick. Its ranking is then the picks at their first
    occurrences and the unpicked ranks, ascending, everywhere else. Both
    tests run once over the whole array, and the simple rows are built in
    one array pass: the unpicked ranks come from one flat mask indexed by
    ``pick + row * n``, which is the whole answer when every row is simple,
    as the peeling of an admissible matrix gives. Any other row takes the
    list walk.
    """
    n = picks.shape[1]
    ranks = np.arange(n)
    K = picks.copy()
    simple = None
    if (K < ranks).any() or (K[:, 1:] < K[:, :-1]).any():
        simple = (K >= ranks).all(axis=1) & (K[:, 1:] >= K[:, :-1]).all(axis=1)
        K = K[simple]
    unpicked = np.ones(K.size, dtype=bool)
    unpicked[K + np.arange(0, K.size, n)[:, None]] = False
    repeat = np.zeros(K.shape, dtype=bool)
    np.equal(K[:, 1:], K[:, :-1], out=repeat[:, 1:])
    K[repeat] = np.tile(ranks, len(K))[unpicked]  # both walk the rows in order
    if simple is None:
        return tuple(map(tuple, K.tolist()))
    built = iter(K.tolist())
    return tuple(tuple(next(built)) if ok else _permutation_from_picks(row)
                 for row, ok in zip(picks.tolist(), simple.tolist()))


def rfsm_decompose(P, *, atol: float = 1e-9) -> Decomposition:
    """Peel an admissible matrix into a convex combination of rankings.

    The input must pass C.1-C.4 within ``atol``, or
    :class:`InadmissibleMatrixError` names its first violation; a NaN entry
    always fails C.1, so no NaN reaches the peeling. A loose ``atol`` can
    admit columns whose sums differ; the column that runs out first while
    others hold mass is then named as a C.2 violation.

    Entries below ``ZERO_SNAP`` are snapped to zero and the rest clipped to
    [0, 1]. Each round then reads off the lowest nonzero rank of every column
    (those picks form a valid integral matrix), peels that ranking out with
    the smallest picked entry as its weight, and snaps to zero what falls
    below ``ZERO_SNAP``. Peeling is in absolute scale: the smallest picked
    cell hits zero exactly each round and nothing is divided, so rounding
    noise is never amplified and at most ``z - n + 1`` rounds run for ``z``
    nonzeros. It stops once the remaining mass is below ``n * n * ZERO_SNAP``,
    and the weights are normalized at the end.

    A round lowers only the picked cell of each column, so a column's pick
    only moves down through the nonzero rows it had after the snap. The
    picked cells sit in one array: a round takes its weight at the argmin,
    subtracts it from every column in one array step (the same floats as
    column by column) and then, lowest first, moves each column that fell
    below ``ZERO_SNAP`` to its next nonzero row; the argmin that finds no
    such column is the next round's pick. A column that runs out is kept
    out of that chain until the round ends, so the round moves every column
    it empties and the lowest empty one is named. The remaining mass is a
    float sum of non-negative cells, never below its largest cell, so while
    one known picked cell exceeds ``n * n * ZERO_SNAP`` the loop can neither
    stop on dust nor find the matrix empty; once that cell is dust, the
    argmax finds another. The matrix is summed before the first round, and
    after that rebuilt and summed only when every picked cell is dust (and
    for an error report), giving the same floats as a scan every round.

    The loop records, for each slot it leaves, the round it left it. After
    the loop each slot is picked from the round its column left the slot
    above to the round it was left itself (or the last round), so the picks
    are the slots' rows repeated that many rounds, and
    :func:`_rankings_from_picks` builds the rankings from them.
    """
    P = np.asarray(P, dtype=float)
    report = admissibility_report(P, atol)
    if not report.ok:
        raise InadmissibleMatrixError(report)
    n = P.shape[0]
    C = np.clip(P, 0.0, 1.0)
    C[C < ZERO_SNAP] = 0.0  # what the clip leaves below the snap, -0.0 too
    columns = np.arange(n)
    dust = n * n * ZERO_SNAP
    # the nonzero cells column by column, top-down: column c owns the slots
    # start[c]..end[c]-1, and its pick sits on slot pos[c] with value cur[c]
    col_of, row_of = np.nonzero(C.T)
    rows = row_of.tolist()
    vals = C[row_of, col_of].tolist()
    end = np.cumsum(np.bincount(col_of, minlength=n)).tolist()
    start = [0] + end[:-1]
    pos = start[:]
    # a column with no cell left has value 0.0 on a zero cell
    pick = [rows[k] if k < e else 0 for k, e in zip(pos, end)]
    cur = np.array([vals[k] if k < e else 0.0 for k, e in zip(pos, end)])
    empty = next((c for c in range(n) if pos[c] == end[c]), n)  # lowest empty column
    above = 0  # a column whose cell may exceed the dust
    gone: list[int] = []  # slots snapped to zero, in order
    moves: list[int] = []  # for each, the first round that no longer picks it

    def matrix() -> np.ndarray:
        """``C`` as a scan every round would hold it."""
        C[row_of[gone], col_of[gone]] = 0.0
        C[pick, columns] = cur
        return C

    weights: list[float] = []
    remaining = C.sum()
    argmin = cur.argmin
    value = cur.item  # a Python float: the same float, read faster
    c = int(argmin()) if n else 0  # the column whose cell is peeled
    for t in range(max(len(rows) - n + 1, 1)):
        if remaining is not None and remaining <= dust:
            remaining = 0.0
            break
        if empty < n:
            # every round peels the same weight off each column, so the sum of
            # the empty one falls short of the fullest by what that one holds,
            # whether or not atol admitted the input
            held = float(matrix().sum(axis=0).max())
            raise InadmissibleMatrixError(AdmissibilityReport(
                ok=False, violations=(ConstraintViolation("C.2", (empty + 1,), held),)))
        peel = value(c)
        weights.append(peel)
        np.subtract(cur, peel, out=cur)
        # the columns that fall below the snap, lowest value first: each one
        # steps to its next cell, and the last argmin is the next round's pick
        after = t + 1
        while True:
            k = pos[c]
            gone.append(k)
            moves.append(after)
            k += 1
            if k < end[c]:
                pos[c] = k
                pick[c] = rows[k]
                cur[c] = vals[k]
            else:
                cur[c] = math.inf  # out of the argmin until the round ends
                if c < empty:
                    empty = c
            c = int(argmin())
            if value(c) >= ZERO_SNAP:
                break
        if empty < n:
            cur[cur == math.inf] = 0.0
        # the sum, or None while a picked cell proves it above the dust
        if value(above) > dust:
            remaining = None
            continue
        above = int(cur.argmax())
        if value(above) > dust:
            remaining = None
            continue
        remaining = matrix().sum()
        if remaining == 0.0:
            break
    if remaining is None:
        remaining = matrix().sum()
    if remaining > n * 1e-9:
        raise RuntimeError("peeling failed to terminate; residual mass remains")
    if not weights:
        raise ValueError("matrix carries no mass to decompose")
    # the picks column by column: each slot's row, repeated for its rounds
    rounds = len(weights)
    leave = np.full(len(rows), rounds)
    leave[gone] = moves
    enter = np.empty_like(leave)
    enter[1:] = leave[:-1]
    enter[start] = 0
    picks = np.repeat(row_of, leave - enter).reshape(n, rounds).T
    w = np.asarray(weights)
    return Decomposition(w / w.sum(), _rankings_from_picks(picks))


def window_suffix_bounds(q) -> np.ndarray:
    """Lower bounds on suffix mass of any achievable marginal: ``Q[j] = sum(q[j:])``.

    A window of length ``w`` always yields a pick of rank ``>= w - 1``, so the
    chance of picking rank ``>= j`` is at least the chance the window is
    longer than ``j``, whatever the mixture played.
    """
    q = np.asarray(q, dtype=float)
    return np.cumsum(q[::-1])[::-1]


def marginal_deficit(p, q) -> tuple[int, float]:
    """Worst suffix shortfall of target marginals ``p`` against the bounds of ``q``.

    Returns ``(suffix start, deficit)``; a deficit <= 0 means ``p`` is
    achievable (it is then also sufficient, by the coupling construction in
    :func:`feasible_matrix`).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.size < 2:
        return 1, 0.0
    gaps = np.cumsum(p)[:-1] - np.cumsum(q)[:-1]  # suffix deficit == prefix excess
    j = int(np.argmax(gaps))
    return j + 1, float(gaps[j])


def _window_columns(q: np.ndarray):
    """The window side of the coupling of :func:`feasible_matrix` and
    :class:`CouplingSampler`: the raw running sums ``S`` of ``q`` and each
    column's segment ``(low, end]`` of [0, 1], where ``end`` is ``S`` with the
    last sum forced to 1 and ``low`` the previous column's ``end`` (or 0).
    A column of width at most ``ZERO_SNAP``, or whose low end is at least 1
    (``q`` rounds past 1), is degenerate (the returned mask): it overlaps no
    rank segment and takes :func:`_degenerate_rank` instead.
    """
    sums = np.cumsum(q)  # sequential, so the floats of a running sum
    end = sums.copy()
    end[-1] = 1.0
    low = np.concatenate(([0.0], end[:-1]))
    return sums, low, end, (end - low <= ZERO_SNAP) | (low >= 1.0)


def _clamped_cumulatives(p: Sequence[float], sums: Sequence[float]) -> list[float]:
    """The cumulative masses ``F`` of the target ``p`` over ranks, beside the
    raw running sums ``sums`` of ``q``.

    ``F`` is clamped under ``sums`` and kept non-decreasing in [0, 1], and its
    last entry is exactly 1, so the coupling is exact for ``p`` feasible up
    to a tolerance.
    """
    F = []
    run = 0.0
    acc = 0.0
    for x, s in zip(p, sums):
        acc += x
        v = acc if acc < s else s
        if v > run:
            run = v if v < 1.0 else 1.0
        F.append(run)
    F[-1] = 1.0
    return F


def _degenerate_rank(F: list[float], end: float, c: int) -> int:
    """The rank a degenerate column ``c`` takes: the one the coupling sits on
    at the column's end, and at least ``c``, which keeps suffix masses
    monotone across neighbouring columns."""
    i = bisect_right(F, end, 0, len(F) - 1)
    return i if i > c else c


def feasible_matrix(p, q) -> np.ndarray:
    """An admissible matrix ``P`` with ``P q = p``, or raise if none exists.

    The dense view of :class:`CouplingSampler`, the order-preserving coupling
    of the two distributions, from the same window columns, clamp and
    degenerate ranks: it lays the cumulative masses ``F`` of ``p``
    (over ranks) and ``G`` of ``q`` (over windows) side by side on [0, 1];
    cell ``(i, c)`` is the overlap of rank segment ``(F[i-1], F[i]]`` with
    window segment ``(G[c-1], G[c]]``, ``max(min(F[i], G[c]) - max(F[i-1],
    G[c-1]), 0)``, as a share of the window's width, and a degenerate column
    is 1 on its fixed rank. Feasibility is exactly the suffix-domination
    check of :func:`marginal_deficit`, and the coupling puts mass only on
    cells with rank >= window - 1 with suffix mass non-decreasing in the
    window, so the result is admissible by construction.
    """
    p = probability_vector(p, name="p")
    q = probability_vector(q, name="q")
    if q.size != p.size:
        raise ValueError("p and q must have equal length")
    start, deficit = marginal_deficit(p, q)
    if deficit > FEASIBILITY_TOL:
        Q = window_suffix_bounds(q)
        raise InfeasibleTargetError(start, float(Q[start]),
                                    float(Q[start] - deficit))
    sums, low, end, degenerate = _window_columns(q)
    F = _clamped_cumulatives(p.tolist(), sums.tolist())
    Fa = np.array(F)
    F_lo = np.concatenate(([0.0], Fa[:-1]))
    width = np.where(degenerate, 0.0, end - low)
    overlap = np.minimum(Fa[:, None], end) - np.maximum(F_lo[:, None], low)
    P = np.maximum(overlap, 0.0) / np.where(degenerate, 1.0, width)
    # a degenerate column overlaps no rank segment: it is 1 on its rank
    for c, e in zip(np.flatnonzero(degenerate).tolist(), end[degenerate].tolist()):
        P[:, c] = 0.0
        P[_degenerate_rank(F, e, c), c] = 1.0

    # shares carry rounding of order eps / width; judge the shortfall as
    # window mass, so a narrow (rare) window is not rejected for it
    colsum = P.sum(axis=0)
    off = np.flatnonzero(np.abs(colsum - 1.0) * width > 1e-9)
    if off.size:
        c = int(off[0])
        raise RuntimeError(f"coupling column {c} sums to {float(colsum[c])!r}")
    P *= 1.0 / colsum  # exact where a column already sums to 1

    residual = float(np.max(np.abs(P @ q - p)))
    if residual > COUPLING_RESIDUAL_TOL:
        raise RuntimeError(f"coupling residual {residual:.3g} exceeds "
                           f"{COUPLING_RESIDUAL_TOL:.3g}")
    return P


class CouplingSampler:
    """The order-preserving coupling for one window law ``q``, set up once to
    draw rankings for one target after another; :func:`feasible_matrix` is
    its dense view.

    The window side depends on ``q`` only and is laid out here, by
    :func:`_window_columns`: the running sums of ``q``, and each column's
    segment ``(G[c-1], G[c]]`` of [0, 1], where ``G`` is those sums with the
    last one forced to 1. A degenerate column takes the rank the coupling
    sits on at its end (:func:`_degenerate_rank`). :meth:`couple` lays a
    target ``p`` beside it, through the clamp :func:`feasible_matrix` uses
    too (:func:`_clamped_cumulatives`). It sets ``realized[i] = F[i] -
    F[i-1]``, which equals the dense ``P q`` up to rounding, and
    ``residual``, its largest distance from ``p``; the dense view needs
    neither. ``p`` must be feasible for ``q``: the checks of
    :func:`feasible_matrix` do not run here. ``p`` is read by index, so a
    plain list of floats is the fast input.

    :meth:`draw` maps a uniform ``u`` to the term of the mixture
    ``rfsm_decompose(feasible_matrix(p, q))`` whose cumulative weight covers
    ``u``. Peeling takes the lowest nonzero rank of every column and peels in
    absolute scale, so that term picks, in every column ``c``, the rank whose
    coupling segment holds ``G[c-1] + u * q[c]``; a uniform ``u`` thus samples
    the peeled mixture exactly.
    """

    def __init__(self, q: Sequence[float]):
        sums, low, end, degenerate = _window_columns(np.asarray(q, dtype=float))
        self._sums = sums.tolist()
        self._last = len(self._sums) - 1
        # (low, width, end, fixed rank) per column; a degenerate column gets
        # its fixed rank from couple: it depends on p
        ends = end.tolist()
        self._columns = [None if d else (lo, e - lo, e, None)
                         for lo, e, d in zip(low.tolist(), ends, degenerate.tolist())]
        self._degenerate = [(c, ends[c]) for c in np.flatnonzero(degenerate).tolist()]

    def couple(self, p: Sequence[float]) -> None:
        """Lay the target ``p`` beside the windows for the draws that follow."""
        F = self._F = _clamped_cumulatives(p, self._sums)
        self.realized = list(map(sub, F, [0.0] + F[:-1]))
        self.residual = max(map(abs, map(sub, self.realized, p)))
        for c, end in self._degenerate:
            # the infinite target never falls inside the column
            self._columns[c] = (math.inf, 0.0, math.inf, _degenerate_rank(F, end, c))

    def draw(self, u: float, labels: Sequence) -> tuple:
        """The ranking the uniform ``u`` picks, shown as ``labels[rank]``.

        A column whose pick is already placed takes the lowest unplaced rank
        instead, as :func:`_permutation_from_picks` does.

        Each column's search starts at the previous column's pick. It finds
        the rank a search from 0 finds, because the picks never step down and
        ``pick[c] >= c``: a search from ``prev`` returns ``max(prev, pick)``.
        Let ``x_c = low_c + u * width_c`` be column ``c``'s target and ``S``
        the raw running sums of ``q``, so ``low_c == S[c-1]`` and
        ``end_c == low_{c+1}``.

        * ``pick[c] >= c``. ``couple`` clamps each running sum of ``p`` under
          ``S[i]``, and ``S`` is non-decreasing, so ``F[i] <= S[i]`` below the
          last rank. A column of positive width has ``x_c >= low_c >= F[c-1]``
          (adding ``u * width >= 0`` never rounds down) and
          ``end_c > low_c``, so ``bisect_right(F, x_c)`` and
          ``bisect_left(F, end_c)`` are both at least ``c``. A degenerate
          column takes ``max(bisect_right(F, end_c), c)``. The cap at
          ``last >= c`` keeps the bound.
        * The picks never step down. The targets rise:
          ``x_c <= end_c == low_{c+1} <= x_{c+1}``, and a target that rounds
          onto or past ``end_c`` is searched as ``end_c``. Both searches are
          non-decreasing in the target, and ``bisect_left(F, y) >=
          bisect_right(F, x)`` for ``y > x``. So a column of positive width
          picks at most ``bisect_right(F, end_c)``, and the next column picks
          at least that. A degenerate column's pick
          ``max(bisect_right(F, end_c), c)`` is at most the next column's,
          which searches a target of at least ``end_c`` and is at least
          ``c + 1``. The cap at ``last`` keeps the order.
        """
        F = self._F
        last = self._last
        placed = [False] * len(F)
        out = []
        cursor = 0  # everything below is placed
        i = 0  # the previous column's pick
        for low, width, end, fixed in self._columns:
            x = low + u * width
            if x < end:
                i = bisect_right(F, x, i, last)
            elif fixed is None:
                # the target rounded onto or past the column's end: the lowest
                # rank whose segment reaches that end
                i = bisect_left(F, end, i, last)
            else:
                i = fixed
            if placed[i]:
                while placed[cursor]:
                    cursor += 1
                placed[cursor] = True
                out.append(labels[cursor])
            else:
                placed[i] = True
                out.append(labels[i])
        return tuple(out)
