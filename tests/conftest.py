"""Shared brute-force oracles, generators and test doubles for the test suite.

Most oracles here are independent of the library internals: they enumerate
permutations, scan prefixes directly, test dominance pair by pair
(:func:`family_oracle`) or hand a linear program to scipy, so library
results can be checked against them without circularity. The exceptions
are :func:`feasible_matrix_oracle`, the list form of the array coupling, and
:func:`coupling_sample`, the one-call form of the ranking sampler, which lay
out their cumulative masses with :func:`_coupling_cumulatives`, written as
the library's sampler computes them, :func:`rfsm_decompose_oracle`, the
peeling as plain list scans, which can also check every intermediate
residual for admissibility, and :func:`admissibility_report_oracle`, the
scan for every violation that the library runs only once its reductions
reject a matrix.
"""

from __future__ import annotations

import csv
import itertools
from array import array
from bisect import bisect_left, bisect_right

import numpy as np
from scipy.optimize import linprog

from rankbandit.core import DegenerateInstanceError, OptimalFamily, probability_vector
from rankbandit.environments import RegretTrace, run_episode
from rankbandit.polytope import (
    ZERO_SNAP, AdmissibilityReport, ConstraintViolation, Decomposition,
    InadmissibleMatrixError, InfeasibleTargetError, _permutation_from_picks,
    admissibility_report, marginal_deficit, window_suffix_bounds,
)


def naive_select(order, utilities, w):
    """Reference user model: highest-utility item among the first w displayed."""
    return max(order[:w], key=lambda i: utilities[i])


def best_mean_by_window(utilities, means, w):
    """Best expected payoff any single ranking achieves at window ``w``."""
    n = len(utilities)
    return max(means[naive_select(order, utilities, w)]
               for order in itertools.permutations(range(n)))


def optimal_orders(utilities, means):
    """All rankings simultaneously optimal at every window length (by enumeration)."""
    n = len(utilities)
    targets = [best_mean_by_window(utilities, means, w) for w in range(1, n + 1)]
    out = set()
    for order in itertools.permutations(range(n)):
        if all(means[naive_select(order, utilities, w)] == targets[w - 1]
               for w in range(1, n + 1)):
            out.add(order)
    return out


def family_oracle(utilities, means, *, strict=True):
    """The optimal family by the pairwise dominance test: an item is dominated
    when some item beats it in both utility and mean, and it joins the block
    of the highest-mean undominated item of higher utility. The O(n^2) form
    that :func:`~rankbandit.core._family_from_arrays` replaces with one walk."""
    n = len(utilities)
    if len(means) != n:
        raise ValueError("means and utilities must have the same length")
    if strict and len(set(float(m) for m in means)) != n:
        raise DegenerateInstanceError("mean payoffs must be pairwise distinct")
    dominated = [
        any(utilities[i] > utilities[j] and means[i] > means[j] for i in range(n))
        for j in range(n)
    ]
    undominated = sorted(
        (i for i in range(n) if not dominated[i]),
        key=lambda i: (-means[i], i),
    )
    blocks = {s: [] for s in undominated}
    for j in range(n):
        if dominated[j]:
            # highest-mean undominated item of strictly higher utility; one
            # always exists because the argmax itself cannot be dominated
            leader = next(s for s in undominated if utilities[s] > utilities[j])
            blocks[leader].append(j)
    representative = []
    benchmark = []
    for s in undominated:
        representative.append(s)
        representative.extend(blocks[s])
        benchmark.extend([s] * (1 + len(blocks[s])))
    return OptimalFamily(
        undominated=tuple(undominated),
        blocks=tuple(tuple(blocks[s]) for s in undominated),
        representative=tuple(representative),
        benchmark_by_window=tuple(benchmark),
    )


def family_contains(family, order):
    """Structural membership test for an :class:`~rankbandit.core.OptimalFamily`:
    each undominated item, in order, directly followed by its block in any order."""
    order = tuple(order)
    if len(order) != len(family.representative):
        return False
    pos = 0
    for leader, block in zip(family.undominated, family.blocks):
        if order[pos] != leader:
            return False
        pos += 1
        if sorted(order[pos:pos + len(block)]) != list(block):
            return False
        pos += len(block)
    return True


def family_members(family):
    """Every member ranking of an optimal family (small instances only)."""
    pools = [itertools.permutations(block) for block in family.blocks]
    for arrangement in itertools.product(*pools):
        out = []
        for leader, block in zip(family.undominated, arrangement):
            out.append(leader)
            out.extend(block)
        yield tuple(out)


def read_trace_csv(path):
    """Read a trace CSV written by :meth:`RegretTrace.to_csv` back, exactly:
    the writer gives floats as their round-tripping ``repr``."""
    columns = RegretTrace.CSV_COLUMNS
    data = {col: [] for col in columns}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if tuple(h.strip() for h in header) != columns:
            raise ValueError(f"unexpected trace header {header!r}")
        for rec in reader:
            if len(rec) != len(columns):
                raise ValueError(f"trace row {rec!r} does not have {len(columns)} fields")
            for col, value in zip(columns, rec):
                data[col].append(value)
    return RegretTrace(
        trials=np.asarray(data["t"], dtype=np.int64),
        windows=np.asarray(data["window"], dtype=np.int64),
        selected=np.asarray(data["selected"], dtype=np.int64),
        payoffs=np.asarray(data["payoff"], dtype=float),
        inst_regret=np.asarray(data["inst_regret"], dtype=float),
        cum_regret=np.asarray(data["cum_regret"], dtype=float),
    )


def write_tape_csv(values, path):
    """Write an ``(n, T)`` payoff tape in the long format ``t,item,payoff``,
    floats via ``repr`` so :meth:`TapePayoffs.from_csv` reads them back exactly."""
    values = np.asarray(values, dtype=float)
    n, horizon = values.shape
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "item", "payoff"])
        for t in range(1, horizon + 1):
            for item in range(n):
                writer.writerow([t, item, repr(float(values[item, t - 1]))])


def brute_force_best_fixed(tape_values, q, utilities):
    """Best total tape payoff over single rankings.

    The polytope optimum must coincide: a linear objective over the convex
    hull of ranking matrices is attained at a vertex.  In rank space the pick
    of a ranking at window w is simply the largest rank label shown in the
    first w slots.
    """
    tape_values = np.asarray(tape_values, dtype=float)
    q = np.asarray(q, dtype=float)
    n = q.size
    totals = tape_values.sum(axis=1)
    rank_totals = totals[np.argsort(np.asarray(utilities, dtype=float))]
    best = -np.inf
    for order in itertools.permutations(range(n)):
        value = 0.0
        top = -1
        for w0, label in enumerate(order):
            top = max(top, label)
            value += q[w0] * rank_totals[top]
        best = max(best, value)
    return float(best)


def admissible_lp(n):
    """Linear description of the admissible polytope, for scipy's ``linprog``.

    Variables are the entries ``P[i, c]`` on or below the diagonal, numbered
    by ``index[(i, c)]``. ``A_cols @ x = 1`` makes every column sum to one and
    ``A_ub @ x <= 0`` makes suffix masses non-decreasing from column ``c`` to
    ``c + 1``. Returns ``(index, A_cols, A_ub)``.
    """
    index = {}
    for c in range(n):
        for i in range(c, n):
            index[(i, c)] = len(index)
    nv = len(index)
    A_cols = np.zeros((n, nv))
    for (i, c), k in index.items():
        A_cols[c, k] = 1.0
    rows = []
    for j in range(1, n):
        for c in range(n - 1):
            row = np.zeros(nv)
            for i in range(max(j, c), n):
                row[index[(i, c)]] = 1.0
            for i in range(max(j, c + 1), n):
                row[index[(i, c + 1)]] -= 1.0
            rows.append(row)
    return index, A_cols, np.array(rows).reshape(len(rows), nv)  # 0 rows at n = 1


def hindsight_linprog(tape_values, q, utilities):
    """Best fixed ``(value, item marginals)`` over the admissible polytope, by LP.

    Maximizes ``sum_{i, c} R[i] q[c] P[i, c]`` with ``R`` the tape total per
    utility rank. Under tied totals the optimal marginals are not unique and
    the solver returns one optimal vertex.
    """
    tape_values = np.asarray(tape_values, dtype=float)
    q = np.asarray(q, dtype=float)
    n = q.size
    totals = tape_values.sum(axis=1)
    order = np.argsort(np.asarray(utilities, dtype=float))
    rank_totals = totals[order]
    index, A_cols, A_ub = admissible_lp(n)
    cost = np.zeros(len(index))
    for (i, c), k in index.items():
        cost[k] = -rank_totals[i] * q[c]
    res = linprog(cost, A_ub=A_ub, b_ub=np.zeros(len(A_ub)), A_eq=A_cols,
                  b_eq=np.ones(n), bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    P = np.zeros((n, n))
    for (i, c), k in index.items():
        P[i, c] = res.x[k]
    marginals = np.empty(n)
    marginals[order] = P @ q
    return float(-res.fun), marginals


def _coupling_cumulatives(pl, ql):
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


def feasible_matrix_oracle(p, q, *, atol=1e-8, feas_tol=1e-9):
    """The coupling of :func:`feasible_matrix`, routed segment by segment in lists."""
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
    F, G = _coupling_cumulatives(pl, ql)
    rows = [[0.0] * n for _ in range(n)]
    for c in range(n):
        lo = G[c - 1] if c else 0.0
        hi = G[c]
        if hi - lo <= ZERO_SNAP or lo >= 1.0:
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


def coupling_sample(p, q, u):
    """One ranking from the coupling of :func:`feasible_matrix`, without the matrix;
    the one-call reference for :class:`~rankbandit.polytope.CouplingSampler`.

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


def admissibility_report_oracle(P, atol=1e-9):
    """C.1-C.4 scanned for every violation, in constraint order, on every matrix:
    :func:`~rankbandit.polytope.admissibility_report` without its array
    reductions that accept an admissible matrix first."""
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {P.shape}")
    bad: list[ConstraintViolation] = []

    # NaN fails both comparisons, so every non-finite entry is reported here
    for i, c in zip(*np.where(~((P >= -atol) & (P <= 1.0 + atol)))):
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


def rfsm_decompose_oracle(P, *, atol=1e-9, check_residuals=False):
    """The peeling of :func:`~rankbandit.polytope.rfsm_decompose` as plain
    column-major list scans; ``check_residuals`` rescales the matrix left
    after each round and raises if it is not admissible."""
    P = np.asarray(P, dtype=float)
    report = admissibility_report(P, atol)
    if not report.ok:
        raise InadmissibleMatrixError(report)
    n = P.shape[0]
    Pl = P.tolist()
    cols = [[0.0 if abs(Pl[i][c]) < ZERO_SNAP else min(max(Pl[i][c], 0.0), 1.0)
             for i in range(n)] for c in range(n)]
    weights = []
    orders = []
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
        for c in range(n):
            col = cols[c]
            i = 0
            while i < n and col[i] == 0.0:
                i += 1
            if i == n:
                held = max(sum(other) for other in cols)
                raise InadmissibleMatrixError(AdmissibilityReport(
                    ok=False, violations=(ConstraintViolation("C.2", (c + 1,), held),)))
            picks[c] = i
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


def selection_matrix_oracle(order):
    """Selection matrix of a rank-space ranking, built by prefix maxima."""
    n = len(order)
    P = np.zeros((n, n))
    top = -1
    for w0, label in enumerate(order):
        top = max(top, label)
        P[top, w0] = 1.0
    return P


def random_mixture(rng, n, k):
    """Random convex combination of ranking matrices: (matrix, weights, orders)."""
    weights = rng.dirichlet(np.ones(k))
    orders = [tuple(int(x) for x in rng.permutation(n)) for _ in range(k)]
    M = np.zeros((n, n))
    for w, order in zip(weights, orders):
        M += w * selection_matrix_oracle(order)
    return M, weights, orders


def sample_decomposition(decomposition, rng):
    """The ranking of ``decomposition`` whose cumulative weight covers
    ``rng.random()``, as a tuple of ints."""
    r = float(rng.random()) * float(decomposition.weights.sum())
    acc = 0.0
    for w, order in zip(decomposition.weights, decomposition.permutations):
        acc += w
        if r < acc:
            return tuple(order.tolist())
    return tuple(decomposition.permutations[-1].tolist())


def random_instance(rng, n, *, mean_scale=1.0):
    """Distinct utilities and means in random association, as (utilities, means)."""
    utilities = rng.permutation(n).astype(float) + 1.0
    means = np.sort(rng.uniform(0.0, mean_scale, size=n))
    means = means + np.arange(n) * 1e-3  # keep them distinct even after ties
    return utilities, means[rng.permutation(n)]


def random_lazy_q(rng, n):
    """Non-increasing window distribution with every entry positive."""
    q = np.sort(rng.dirichlet(np.ones(n) * 2.0))[::-1]
    q = q + 1e-6
    return q / q.sum()


class FixedPermutationPolicy:
    """Displays the same ranking every trial (a baseline and test double)."""

    def __init__(self, order):
        self.order = tuple(int(i) for i in order)

    def act(self, t, utilities):
        return self.order

    def feed(self, t, item, payoff):
        pass


def pivot_permutation(i, n):
    """Pivot ranking for rank ``i``: ``(i, i-1, ..., 0, i+1, ..., n-1)``.

    A window of length <= i+1 picks rank i; a longer window w picks rank w-1.
    """
    if not 0 <= i < n:
        raise ValueError(f"pivot rank {i} outside [0, {n - 1}]")
    return tuple(range(i, -1, -1)) + tuple(range(i + 1, n))


class RecordingPolicy:
    """Hands act and feed on to ``policy`` and keeps every order it displays:
    ``orders`` is the ``int16`` array of them, one row of ``n`` items a trial.
    An order of another length raises at its trial, so no row can slip."""

    def __init__(self, policy, n):
        self.policy = policy
        self.n = n
        self._orders = array("h")

    def act(self, t, utilities):
        order = self.policy.act(t, utilities)
        if len(order) != self.n:
            raise ValueError(f"trial {t}: the policy displayed {len(order)} items, "
                             f"expected {self.n}")
        self._orders.extend(order)
        return order

    def feed(self, t, item, payoff):
        self.policy.feed(t, item, payoff)

    @property
    def orders(self):
        return np.frombuffer(self._orders, dtype=np.int16).reshape(-1, self.n)


def recorded_episode(policy, instance, payoffs, windows, horizon, **kwargs):
    """:func:`run_episode` with every displayed order recorded: ``(trace, orders)``."""
    recorder = RecordingPolicy(policy, instance.n)
    trace = run_episode(recorder, instance, payoffs, windows, horizon, **kwargs)
    return trace, recorder.orders


class AdaptiveWindows:
    """Scripted window adversary: ``fn(t, history)`` picks trial ``t``'s
    window from the past ``(window, pick, payoff)`` triples, never from the
    ranking. The episode loop tells a window source nothing, so the history
    comes from an :class:`InformingPolicy` around the episode's policy."""

    def __init__(self, fn, n):
        self.fn = fn
        self.n = n
        self.history = []
        self.last = None  # the window drawn last

    def draw(self, t):
        w = int(self.fn(t, self.history))
        if not 1 <= w <= self.n:
            raise ValueError(f"adaptive window {w} outside 1..{self.n}")
        self.last = w
        return w


class InformingPolicy:
    """Hands act and feed on to ``policy``, then appends each feed's
    ``(window, item, payoff)`` to the history of ``windows``, an
    :class:`AdaptiveWindows`. The loop feeds after the same trial's draw, so
    the window drawn last is the trial's window."""

    def __init__(self, policy, windows):
        self.policy = policy
        self.windows = windows

    def act(self, t, utilities):
        return self.policy.act(t, utilities)

    def feed(self, t, item, payoff):
        self.policy.feed(t, item, payoff)
        self.windows.history.append((self.windows.last, item, payoff))


def utility_sequence_episode(policy, sequence, means, payoffs, windows):
    """The display/select/feed loop of :func:`run_episode` with utilities that
    change from trial to trial, which the library's episodes never do: row
    ``t - 1`` of ``sequence`` is what the policy is shown and the user picks
    by at trial ``t``, for ``len(sequence)`` trials. Each trial scores
    ``means[s] - means[y]`` against the :func:`family_oracle` of its row,
    built once per distinct row. Returns ``(trace, orders)``, the orders
    recorded by :class:`RecordingPolicy`."""
    means = [float(m) for m in means]
    recorder = RecordingPolicy(policy, len(means))
    best = {}
    ws, ys, pays, regret = [], [], [], []
    for t, utilities in enumerate(np.asarray(sequence, dtype=float), 1):
        order = recorder.act(t, utilities)
        w = windows.draw(t)
        y = naive_select(order, utilities, w)
        payoff = payoffs.draw(y, t)
        recorder.feed(t, y, payoff)
        row = tuple(utilities.tolist())
        if row not in best:
            best[row] = family_oracle(row, means).benchmark_by_window
        ws.append(w)
        ys.append(y)
        pays.append(payoff)
        regret.append(means[best[row][w - 1]] - means[y])
    regret = np.array(regret)
    trace = RegretTrace(
        trials=np.arange(1, len(ws) + 1), windows=np.array(ws, dtype=np.int64),
        selected=np.array(ys, dtype=np.int64), payoffs=np.array(pays),
        inst_regret=regret, cum_regret=np.cumsum(regret))
    return trace, recorder.orders
