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
nonzero entries.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Permutation, probability_vector, selection_matrix

ZERO_SNAP = 1e-12


class InadmissibleMatrixError(ValueError):
    def __init__(self, report: "AdmissibilityReport"):
        self.report = report
        super().__init__(f"matrix is not admissible: {report.first}")


class InfeasibleTargetError(ValueError):
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
    """Check C.1-C.4 and report every violation, scanned in constraint order."""
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {P.shape}")
    n = P.shape[0]
    bad: list[ConstraintViolation] = []

    for i, c in zip(*np.where((P < -atol) | (P > 1.0 + atol))):
        excess = P[i, c] - 1.0 if P[i, c] > 1.0 else -P[i, c]
        bad.append(ConstraintViolation("C.1", (int(i), int(c) + 1), float(excess)))

    col_sums = P.sum(axis=0)
    for c in np.where(np.abs(col_sums - 1.0) > atol)[0]:
        bad.append(ConstraintViolation("C.2", (int(c) + 1,), float(abs(col_sums[c] - 1.0))))

    for i, c in zip(*np.where(np.abs(np.triu(P, k=1)) > atol)):
        bad.append(ConstraintViolation("C.3", (int(i), int(c) + 1), float(abs(P[i, c]))))

    suffix = np.cumsum(P[::-1], axis=0)[::-1]
    for j, c in zip(*np.where(suffix[1:, :-1] > suffix[1:, 1:] + atol)):
        j = int(j) + 1
        c = int(c)
        bad.append(ConstraintViolation(
            "C.4", (j, c + 1, c + 2), float(suffix[j, c] - suffix[j, c + 1])))

    return AdmissibilityReport(ok=not bad, violations=tuple(bad))


def is_admissible(P, atol: float = 1e-9) -> bool:
    return admissibility_report(P, atol).ok


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

    def sample(self, rng: np.random.Generator) -> Permutation:
        r = float(rng.random()) * float(self.weights.sum())
        acc = 0.0
        for w, order in zip(self.weights, self.permutations):
            acc += w
            if r < acc:
                return order
        return self.permutations[-1]


def rfsm_decompose(P, *, atol: float = 1e-9, check_input: bool = True,
                   check_residuals: bool = False) -> Decomposition:
    """Peel an admissible matrix into a convex combination of rankings.

    Each round reads off the lowest nonzero rank of every column (those picks
    form a valid integral matrix), peels that ranking out with the largest
    weight keeping the residual non-negative, and rescales. The peeled entry
    hits zero exactly, so at most ``z - n + 1`` rounds run for ``z`` nonzeros.
    Entries below ``ZERO_SNAP`` are snapped to zero after each rescale.
    """
    P = np.asarray(P, dtype=float)
    if check_input:
        report = admissibility_report(P, atol)
        if not report.ok:
            raise InadmissibleMatrixError(report)
    n = P.shape[0]
    # column-major plain lists: peeling is scan-bound at bandit sizes, where
    # python scans beat per-op array dispatch
    Pl = P.tolist()
    cols = [[0.0 if abs(Pl[i][c]) < ZERO_SNAP else min(max(Pl[i][c], 0.0), 1.0)
             for i in range(n)] for c in range(n)]

    # peel in absolute scale: the argmin cell hits exact zero each round and
    # nothing is ever divided, so rounding noise is never amplified
    weights: list[float] = []
    orders: list[Permutation] = []
    dust = n * n * ZERO_SNAP
    remaining = 0.0
    nnz = 0
    for col in cols:
        for v in col:
            if v:
                nnz += 1
                remaining += v
    picks = [0] * n
    for _ in range(max(nnz - n + 1, 1)):
        if remaining <= dust:
            remaining = 0.0
            break
        drained = False
        for c in range(n):
            col = cols[c]
            i = 0
            while i < n and col[i] == 0.0:
                i += 1
            if i == n:
                drained = True
                break
            picks[c] = i
        if drained:
            # one column is empty while others still carry real mass
            raise InadmissibleMatrixError(
                admissibility_report(np.asarray(cols).T, atol))
        peel = cols[0][picks[0]]
        for c in range(1, n):
            v = cols[c][picks[c]]
            if v < peel:
                peel = v
        weights.append(peel)
        orders.append(_permutation_from_picks(picks))
        remaining = 0.0
        for c in range(n):
            col = cols[c]
            v = col[picks[c]] - peel
            col[picks[c]] = 0.0 if v < ZERO_SNAP else v
            for x in col:
                remaining += x
        if check_residuals and remaining / n > 1e-8:
            report = admissibility_report(
                np.asarray(cols).T / (remaining / n), max(atol, 1e-8))
            if not report.ok:
                raise InadmissibleMatrixError(report)
        if remaining == 0.0:
            break
    if remaining > n * 1e-9:
        raise RuntimeError("peeling failed to terminate; residual mass remains")
    if not weights:
        raise ValueError("matrix carries no mass to decompose")
    w = np.asarray(weights)
    return Decomposition(w / w.sum(), tuple(orders))


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


def _coupling_cumulatives(pl: Sequence[float],
                          ql: Sequence[float]) -> tuple[list[float], list[float]]:
    """Cumulative masses ``(F, G)`` of ``p`` over ranks and ``q`` over windows.

    ``F`` is clamped under ``G`` (and kept non-decreasing in [0, 1]) so the
    coupling is exact even when ``p`` is feasible only up to a tolerance; both
    end at exactly 1.
    """
    n = len(pl)
    F = [0.0] * n
    G = [0.0] * n
    run = 0.0  # running maximum, so it also clamps from below at 0
    acc_p = 0.0
    acc_q = 0.0
    for i in range(n):
        acc_p += pl[i]
        acc_q += ql[i]
        G[i] = acc_q
        v = acc_p if acc_p < acc_q else acc_q
        if v > run:
            run = v if v < 1.0 else 1.0
        F[i] = run
    F[-1] = 1.0
    G[-1] = 1.0
    return F, G


def feasible_matrix(p, q, *, atol: float = 1e-8, feas_tol: float = 1e-9) -> np.ndarray:
    """An admissible matrix ``P`` with ``P q = p``, or raise if none exists.

    Built by the order-preserving coupling of the two distributions: lay the
    cumulative masses of ``p`` (over ranks) and ``q`` (over windows) side by
    side on [0, 1] and route each overlap segment. Feasibility is exactly the
    suffix-domination check of :func:`marginal_deficit`, and the coupling puts
    mass only on cells with rank >= window - 1 with suffix mass non-decreasing
    in the window, so the result is admissible by construction.
    """
    p = probability_vector(p, name="p")
    q = probability_vector(q, name="q")
    if q.size != p.size:
        raise ValueError("p and q must have equal length")
    start, deficit = marginal_deficit(p, q)
    if deficit > feas_tol:
        Q = window_suffix_bounds(q)
        raise InfeasibleTargetError(start, float(Q[start]),
                                    float(Q[start] - deficit))
    n = p.size
    pl = p.tolist()
    ql = q.tolist()

    # plain lists from here on, the column scans dominate at bandit sizes
    F, G = _coupling_cumulatives(pl, ql)

    rows = [[0.0] * n for _ in range(n)]
    for c in range(n):
        lo = G[c - 1] if c else 0.0
        hi = G[c]
        if hi - lo <= ZERO_SNAP or lo >= 1.0:
            # impossible window length, or one whose mass lies above F[-1] = 1
            # by rounding of q: emit the rank the coupling sits on so suffix
            # masses stay monotone across neighbouring columns
            i0 = 0
            while i0 < n and F[i0] <= hi:
                i0 += 1
            if i0 >= n:
                i0 = n - 1
            rows[i0 if i0 > c else c][c] = 1.0
            continue
        width = hi - lo
        i = 0
        while i < n and F[i] <= lo:
            i += 1
        colsum = 0.0
        while i < n:
            prev = F[i - 1] if i else 0.0
            seg = (F[i] if F[i] < hi else hi) - (prev if prev > lo else lo)
            if seg > 0.0:
                share = seg / width
                rows[i][c] = share
                colsum += share
            if F[i] >= hi:
                break
            i += 1
        # shares carry rounding of order eps / width; judge the shortfall as
        # window mass, so a narrow (rare) window is not rejected for it
        if abs(colsum - 1.0) * width > 1e-9:
            raise RuntimeError(f"coupling column {c} sums to {colsum!r}")
        if colsum != 1.0:
            inv = 1.0 / colsum
            for r in range(n):
                if rows[r][c]:
                    rows[r][c] *= inv

    residual = 0.0
    for i in range(n):
        row = rows[i]
        acc = 0.0
        for c in range(n):
            acc += row[c] * ql[c]
        err = abs(acc - pl[i])
        if err > residual:
            residual = err
    if residual > atol:
        raise RuntimeError(f"coupling residual {residual:.3g} exceeds {atol:.3g}")
    return np.asarray(rows)


def coupling_sample(p: Sequence[float], q: Sequence[float],
                    u: float) -> tuple[Permutation, list[float]]:
    """One ranking from the coupling of :func:`feasible_matrix`, without the matrix.

    Returns ``(ranking, realized)``: the ranking is the term of the mixture
    ``rfsm_decompose(feasible_matrix(p, q))`` whose cumulative weight covers
    ``u``, and ``realized[i] = F[i] - F[i-1]`` equals that matrix's ``P q`` up
    to rounding. Peeling takes the lowest nonzero rank of every column and
    peels in absolute scale, so that term picks, in every column ``c``, the
    rank whose coupling segment holds ``G[c-1] + u * q[c]``; a uniform ``u``
    thus samples the peeled mixture exactly. ``p`` must be feasible for ``q``:
    the checks of :func:`feasible_matrix` do not run here. Both are read by
    index, so plain lists of floats are the fast input; ``realized`` is a list.
    """
    F, G = _coupling_cumulatives(p, q)
    n = len(F)
    last = n - 1
    picks = [0] * n
    lo = 0.0
    for c in range(n):
        hi = G[c]
        if hi - lo <= ZERO_SNAP:
            # impossible window length: the rank the coupling sits on, as in
            # feasible_matrix
            i = bisect_right(F, hi)
            if i > last:
                i = last
            picks[c] = i if i > c else c
            lo = hi
            continue
        i = bisect_right(F, lo + u * (hi - lo))
        if i > last or (i and F[i - 1] >= hi):
            # lo + u * (hi - lo) rounded up to hi: the column's top rank
            i = bisect_left(F, hi)
            if i > last:
                i = last
        picks[c] = i
        lo = hi
    realized = [F[0]] + [F[i] - F[i - 1] for i in range(1, n)]
    return _permutation_from_picks(picks), realized
