import math
import pickle

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import (
    admissibility_report_oracle, admissible_lp, coupling_sample, feasible_matrix_oracle,
    random_mixture, rfsm_decompose_oracle, sample_decomposition, selection_matrix_oracle,
)
from rankbandit import harness
from rankbandit.adversarial import MirrorDescent
from rankbandit.core import selection_matrix
from rankbandit.polytope import (
    ZERO_SNAP,
    CouplingSampler,
    Decomposition,
    InadmissibleMatrixError,
    InfeasibleTargetError,
    _permutation_from_picks,
    _rankings_from_picks,
    admissibility_report,
    feasible_matrix,
    is_admissible,
    marginal_deficit,
    rank_selection_matrix,
    rfsm_decompose,
    window_suffix_bounds,
)


def integral_permutation(P, atol=1e-9):
    """Recover the unique ranking realizing an integral admissible matrix."""
    P = np.asarray(P, dtype=float)
    near_one = np.abs(P - 1.0) <= atol
    near_zero = np.abs(P) <= atol
    if not np.all(near_one | near_zero):
        raise ValueError("matrix is not integral (entries must be 0 or 1)")
    snapped = near_one.astype(float)
    report = admissibility_report(snapped, atol)
    if not report.ok:
        raise InadmissibleMatrixError(report)
    picks = [int(np.argmax(snapped[:, c])) for c in range(P.shape[1])]
    return _permutation_from_picks(picks)


class TestAdmissibility:
    def test_identity_admissible(self):
        assert is_admissible(np.eye(2))

    def test_above_diagonal_mass_names_c3(self):
        report = admissibility_report([[0.0, 1.0], [1.0, 0.0]])
        assert not report.ok
        assert report.first.constraint == "C.3"
        assert report.first.location == (0, 2)  # rank 0-based, window 1-based
        assert report.first.amount == pytest.approx(1.0)

    def test_fractional_example_admissible(self):
        assert is_admissible([[0.3, 0.0], [0.7, 1.0]])

    def test_out_of_range_entry_names_c1(self):
        P = [[-0.2, 0.0], [1.2, 1.0]]
        report = admissibility_report(P)
        assert report.first.constraint == "C.1"
        assert {v.constraint for v in report.violations} >= {"C.1"}

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_names_c1(self, value):
        P = np.array([[0.5, 0.0], [0.5, 1.0]])
        P[1, 1] = value
        report = admissibility_report(P)
        assert report.first.constraint == "C.1"
        assert report.first.location == (1, 2)
        assert not is_admissible(P)
        with pytest.raises(InadmissibleMatrixError, match=r"C\.1 violated at \(1, 2\)"):
            rfsm_decompose(P)

    def test_column_sum_names_c2(self):
        report = admissibility_report([[0.4, 0.0], [0.4, 1.0]])
        assert report.first.constraint == "C.2"
        assert report.first.location == (1,)
        assert report.first.amount == pytest.approx(0.2)

    def test_suffix_drop_names_c4(self):
        # columns e3, e2, e3: mass on ranks >= 2 drops from window 1 to 2
        P = [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]
        report = admissibility_report(P)
        assert not report.ok
        assert report.first.constraint == "C.4"
        assert report.first.location == (2, 1, 2)
        assert report.first.amount == pytest.approx(1.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            admissibility_report(np.zeros((2, 3)))

    def test_every_ranking_matrix_admissible(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            order = tuple(int(x) for x in rng.permutation(n))
            assert is_admissible(rank_selection_matrix(order))


def _near_tolerance(rng, n, atol):
    """A random admissible mixture with one constraint pushed by about
    ``+-atol``: a cell below 0 or above 1 (C.1), a column's mass (C.2), a
    cell above the diagonal, taken from the column's largest (C.3), or mass
    moved one rank down a column (C.4). Pushes of 0.5 to 2 ``atol`` land on
    both sides of the bound."""
    M, _, _ = random_mixture(rng, n, int(rng.integers(1, 2 * n + 1)))
    d = atol * float(rng.choice([0.5, 0.99, 1.0, 1.01, 2.0]))
    kind = int(rng.integers(4))
    c = int(rng.integers(n))
    i = int(rng.integers(c, n))  # a cell on or below the diagonal
    if kind == 0:
        M[i, c] = 1.0 + d if rng.random() < 0.5 else -d
    elif kind == 1:
        M[i, c] += d if rng.random() < 0.5 else -d
    elif kind == 2 and c > 0:
        d = d if rng.random() < 0.5 else -d
        M[int(rng.integers(c)), c] = d
        M[int(np.argmax(M[:, c])), c] -= d  # the column keeps its mass
    elif i > c:
        M[i, c] -= d
        M[i - 1, c] += d
    return M


class TestReportMatchesScanOracle:
    """The reductions that accept an admissible matrix never hide a violation:
    the report equals the full scan's, violation by violation."""

    @staticmethod
    def assert_same_report(P, atol=1e-9):
        got = admissibility_report(P, atol)
        want = admissibility_report_oracle(P, atol)
        assert got.ok == want.ok
        assert list(map(str, got.violations)) == list(map(str, want.violations))
        return got.ok

    def test_near_tolerance_pushes(self):
        rng = np.random.default_rng(101)
        verdicts = []
        for _ in range(3000):
            n = int(rng.integers(1, 13))
            atol = float(rng.choice([1e-9, 1e-6]))
            verdicts.append(self.assert_same_report(_near_tolerance(rng, n, atol), atol))
        assert 600 < sum(verdicts) < 2400, sum(verdicts)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_cells(self, value):
        rng = np.random.default_rng(103)
        for _ in range(50):
            n = int(rng.integers(1, 13))
            M, _, _ = random_mixture(rng, n, n)
            M[tuple(rng.integers(n, size=2))] = value
            assert not self.assert_same_report(M)

    @pytest.mark.parametrize("P", [np.zeros((0, 0)), [[1.0]], [[1.0 + 1e-9]],
                                   [[1.0 + 2e-9]], [[0.5]], [[-1e-9]], [[np.nan]]])
    def test_smallest_matrices(self, P):
        self.assert_same_report(P)


class TestRankSelectionMatrix:
    def test_matches_item_space_matrix(self):
        # rank-space ranking of a utility vector reproduces selection_matrix
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            u = rng.permutation(n).astype(float) + 1
            order = rng.permutation(n)
            ranks = np.argsort(np.argsort(u))
            rank_order = tuple(int(ranks[i]) for i in order)
            assert np.array_equal(rank_selection_matrix(rank_order),
                                  selection_matrix(order, u))

    def test_matches_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            order = tuple(int(x) for x in rng.permutation(n))
            assert np.array_equal(rank_selection_matrix(order),
                                  selection_matrix_oracle(order))


class TestIntegralPermutation:
    def test_identity(self):
        assert integral_permutation(np.eye(3)) == (0, 1, 2)

    def test_repeat_column(self):
        assert integral_permutation([[0.0, 0.0], [1.0, 1.0]]) == (1, 0)

    def test_three_item_example(self):
        P = [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        assert integral_permutation(P) == (1, 0, 2)

    def test_round_trips_at_matrix_level(self):
        # distinct rankings can share a selection matrix; the reconstruction
        # must reproduce the matrix exactly
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            order = tuple(int(x) for x in rng.permutation(n))
            M = rank_selection_matrix(order)
            again = integral_permutation(M)
            assert np.array_equal(rank_selection_matrix(again), M)

    def test_rejects_fractional(self):
        with pytest.raises(ValueError, match="integral"):
            integral_permutation([[0.5, 0.0], [0.5, 1.0]])

    def test_rejects_inadmissible(self):
        with pytest.raises(InadmissibleMatrixError):
            integral_permutation([[0.0, 1.0], [1.0, 0.0]])


class TestDecompositionType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Decomposition(weights=np.array([0.5, 0.6]), permutations=((0, 1), (1, 0)))
        with pytest.raises(ValueError):
            Decomposition(weights=np.array([1.0, 0.0]), permutations=((0, 1), (1, 0)))

    def test_matrix_recombines(self):
        d = Decomposition(weights=np.array([0.3, 0.7]),
                          permutations=((0, 1), (1, 0)))
        assert np.allclose(d.matrix(), [[0.3, 0.0], [0.7, 1.0]])

    def test_sample_frequencies(self):
        d = Decomposition(weights=np.array([0.25, 0.75]),
                          permutations=((0, 1), (1, 0)))
        rng = np.random.default_rng(43)
        draws = sum(sample_decomposition(d, rng) == (0, 1) for _ in range(20_000))
        assert abs(draws / 20_000 - 0.25) < 3 * np.sqrt(0.25 * 0.75 / 20_000)


class TestPeeling:
    def test_frozen_two_item_example(self):
        d = rfsm_decompose([[0.3, 0.0], [0.7, 1.0]])
        got = dict(zip(d.permutations, d.weights))
        assert got[(0, 1)] == pytest.approx(0.3, abs=1e-12)
        assert got[(1, 0)] == pytest.approx(0.7, abs=1e-12)

    def test_integral_input_single_term(self):
        order = (2, 0, 1, 3)
        d = rfsm_decompose(rank_selection_matrix(order))
        assert d.permutations == (order,)
        assert d.weights.tolist() == [1.0]

    def test_random_mixtures_recombine(self):
        rng = np.random.default_rng(47)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            M, _, _ = random_mixture(rng, n, int(rng.integers(1, n * n + 1)))
            d = rfsm_decompose(M)
            assert np.max(np.abs(d.matrix() - M)) < 1e-9
            z = int(np.sum(np.asarray(M) > 1e-12))
            assert len(d.permutations) <= z - n + 1
            assert np.all(d.weights > 0)
            assert d.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_inadmissible(self):
        with pytest.raises(InadmissibleMatrixError):
            rfsm_decompose([[0.0, 1.0], [1.0, 0.0]])

    def test_rejects_empty_matrix(self):
        # columns summing to 0 are within atol = 1.0 of 1
        with pytest.raises(ValueError):
            rfsm_decompose(np.zeros((2, 2)), atol=1.0)

    def test_drained_column_names_its_window(self):
        # atol = 1.0 admits the empty second column, which runs out in round 1
        M = [[1.0, 0.0], [0.0, 0.0]]
        assert not assert_decomposition_matches_oracle(M, atol=1.0)
        with pytest.raises(InadmissibleMatrixError, match=r"C\.2 violated at \(2,\) by 1$"):
            rfsm_decompose(M, atol=1.0)
        # one column of a mixture scaled down runs out before the others
        rng = np.random.default_rng(83)
        drained = 0
        for _ in range(300):
            n = int(rng.integers(2, 9))
            M, _, _ = random_mixture(rng, n, int(rng.integers(1, n * n + 1)))
            M[:, rng.integers(n)] *= rng.uniform(0.2, 0.95)
            assert not assert_decomposition_matches_oracle(M, atol=1.0)
            _, (kind, message) = _outcome(rfsm_decompose, M, atol=1.0)
            drained += kind is InadmissibleMatrixError and "C.2 violated" in message
        assert drained > 150, drained

    def test_nan_input_names_the_cell(self):
        # NaN fails every comparison, so no tolerance admits it to the peeling
        for atol in (1e-9, 1.0, np.inf):
            with pytest.raises(InadmissibleMatrixError,
                               match=r"C\.1 violated at \(1, 2\) by nan"):
                rfsm_decompose([[1.0, 0.0], [0.0, np.nan]], atol=atol)


def _error_of(fn, *args):
    """The ``ValueError`` that ``fn(*args)`` raises."""
    with pytest.raises(ValueError) as raised:
        fn(*args)
    return raised.value


class TestErrorsCrossProcesses:
    """A worker process hands its error to the parent pickled: the round trip
    keeps the type, the message and the state, also once
    :func:`rankbandit.harness.run_replication` has rewritten the message."""

    @pytest.mark.parametrize("make, state", [
        (lambda: _error_of(feasible_matrix, [0.7, 0.3], [0.6, 0.4]),
         ("suffix_start", "required", "actual")),
        (lambda: _error_of(rfsm_decompose, [[0.4, 0.0], [0.4, 1.0]]), ("report",)),
    ], ids=["infeasible-target", "inadmissible-matrix"])
    def test_pickle_round_trip(self, make, state, monkeypatch):
        def replication(cfg, rep):
            raise make()

        monkeypatch.setattr(harness, "_replication", replication)
        cfg = harness.ExperimentConfig.from_dict({
            "label": "failing", "seed": 4, "horizon": 10,
            "instance": {"utilities": [1.0, 2.0], "means": [1.0, 2.0]},
            "window": {"type": "multinomial", "q": [0.5, 0.5]},
            "payoffs": {"type": "gaussian"}, "policy": {"name": "elim"}})
        plain = make()
        named = _error_of(harness.run_replication, cfg, 3)
        assert str(named) == f"failing: seed 4, replication 3: {plain}"
        for exc in (plain, named):
            back = pickle.loads(pickle.dumps(exc))
            assert type(back) is type(exc)
            assert str(back) == str(exc) and back.args == exc.args
            for name in state:
                assert getattr(back, name) == getattr(exc, name), name


class TestSuffixBounds:
    def test_values(self):
        assert window_suffix_bounds([0.6, 0.4]).tolist() == [1.0, 0.4]

    def test_marginal_deficit_feasible(self):
        j, d = marginal_deficit([0.5, 0.5], [0.6, 0.4])
        assert d <= 0

    def test_marginal_deficit_infeasible(self):
        j, d = marginal_deficit([0.7, 0.3], [0.6, 0.4])
        assert (j, d) == (1, pytest.approx(0.1))

    def test_single_item(self):
        assert marginal_deficit([1.0], [1.0]) == (1, 0.0)


class TestFeasibleMatrix:
    def test_frozen_two_item_coupling(self):
        P = feasible_matrix([0.5, 0.5], [0.6, 0.4])
        assert np.allclose(P, [[5 / 6, 0.0], [1 / 6, 1.0]], atol=1e-12)

    def test_infeasible_target_raises(self):
        with pytest.raises(InfeasibleTargetError) as exc:
            feasible_matrix([0.7, 0.3], [0.6, 0.4])
        assert exc.value.suffix_start == 1
        assert exc.value.required == pytest.approx(0.4)
        assert exc.value.actual == pytest.approx(0.3)

    def test_degenerate_window(self):
        P = feasible_matrix([0.0, 1.0], [1.0, 0.0])
        assert np.array_equal(P, [[0.0, 0.0], [1.0, 1.0]])

    def test_narrow_window_with_overshooting_cumulative(self):
        # the window cumulative rounds one ulp above 1 before the trailing
        # zero window; the 1e-7 window's shares then miss 2e-9 of their sum
        q = [0.2, 0.7999999000000001, 1e-07, 0.0]
        P = feasible_matrix(q, q)
        assert is_admissible(P)
        assert np.max(np.abs(P @ q - q)) < 1e-12

    def test_window_above_the_top_by_rounding(self):
        # q sums to 1 + 5e-11 (within tolerance): window 2 lies wholly above
        # F[-1] = 1, so no rank segment covers it; it goes to the top rank,
        # as in the direct draw
        q = [1.0, 5e-11, 0.0]
        P = feasible_matrix(q, q)
        assert is_admissible(P)
        assert P[:, 1].tolist() == [0.0, 0.0, 1.0]
        assert coupling_draw(q, q, 0.5)[0] == (0, 2, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            feasible_matrix([0.5, 0.5], [0.7, 0.4])
        with pytest.raises(ValueError):
            feasible_matrix([0.5, 0.5, 0.0], [0.6, 0.4])

    def test_random_marginals_round_trip(self):
        """Any marginal vector realized by a mixture is matched exactly by
        the coupling, and the coupling is admissible."""
        rng = np.random.default_rng(53)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            M, _, _ = random_mixture(rng, n, int(rng.integers(1, 2 * n)))
            q = rng.dirichlet(np.ones(n))
            p = M @ q
            P = feasible_matrix(p, q)
            assert is_admissible(P)
            assert np.max(np.abs(P @ q - p)) < 1e-8

    def test_feasibility_agrees_with_lp(self):
        """Dual route: the suffix-deficit test must agree with an LP
        feasibility solve over the constraint system."""
        rng = np.random.default_rng(59)
        agree_feasible = agree_infeasible = 0
        for _ in range(40):
            n = int(rng.integers(2, 5))
            q = rng.dirichlet(np.ones(n))
            p = rng.dirichlet(np.ones(n))
            deficit_ok = marginal_deficit(p, q)[1] <= 1e-9
            index, A_cols, A_ub = admissible_lp(n)
            A_marg = np.zeros((n, len(index)))
            for (i, c), k in index.items():
                A_marg[i, k] = q[c]
            res = linprog(np.zeros(len(index)), A_ub=A_ub, b_ub=np.zeros(len(A_ub)),
                          A_eq=np.vstack([A_cols, A_marg]),
                          b_eq=np.concatenate([np.ones(n), p]),
                          bounds=(0, None), method="highs")
            assert res.status in (0, 2), res.message  # 2: infeasible
            lp_ok = res.status == 0
            assert lp_ok == deficit_ok
            agree_feasible += lp_ok
            agree_infeasible += not lp_ok
        # exercise both outcomes
        assert agree_feasible > 0 and agree_infeasible > 0


def coupling_draw(p, q, u):
    """``(ranking, realized)`` of the library's sampler for the one uniform ``u``."""
    sampler = CouplingSampler(q)
    sampler.couple(p)
    return sampler.draw(u, range(len(q))), sampler.realized


class _FixedDraw:
    """Stands in for a generator whose next ``random()`` is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def _random_law(rng, n):
    """Random window law, with zero entries in about a quarter, lazy or not."""
    q = rng.dirichlet(np.ones(n) * rng.choice([0.3, 1.0, 3.0]))
    kind = rng.integers(4)
    if kind == 0 and n > 1:  # zero windows, possibly the shortest
        q[rng.random(n) < 0.3] = 0.0
        if q.sum() == 0.0:
            q[-1] = 1.0
        q /= q.sum()
    elif kind == 1:
        q = np.sort(q)[::-1]  # lazy
    return q


def _feasible_target(rng, q):
    """The marginals of a random mixture of rankings under ``q``."""
    n = q.size
    M, _, _ = random_mixture(rng, n, int(rng.integers(1, 2 * n + 1)))
    return M @ q


def _random_target(rng, n):
    """Random window law and a feasible target for it."""
    q = _random_law(rng, n)
    return _feasible_target(rng, q), q


class TestCouplingSample:
    def test_matches_peeled_mixture(self):
        """The direct draw is the peeled term covering u, and the realized
        marginals are those of the coupling matrix."""
        rng = np.random.default_rng(61)
        degenerate = 0
        for _ in range(5000):
            n = int(rng.integers(1, 31))
            p, q = _random_target(rng, n)
            u = float(rng.random())
            P = feasible_matrix(p, q)
            expected = sample_decomposition(rfsm_decompose(P), _FixedDraw(u))
            ranking, realized = coupling_draw(p, q, u)
            assert ranking == expected, (p.tolist(), q.tolist(), u)
            assert np.max(np.abs(realized - P @ q)) <= 1e-12
            # the sampler splits the one-call oracle, to the bit
            assert (ranking, realized) == coupling_sample(p.tolist(), q.tolist(), u)
            degenerate += bool(np.any(q == 0.0))
        assert degenerate > 500

    def test_one_sampler_follows_many_targets(self):
        """A sampler set up once for ``q`` and coupled to one target after
        another draws and realizes what the one-call oracle does, to the bit."""
        rng = np.random.default_rng(67)
        targets = degenerate = 0
        for _ in range(50):
            n = int(rng.integers(1, 31))
            q = _random_law(rng, n)
            ql = q.tolist()
            sampler = CouplingSampler(ql)
            for _ in range(24):
                p = _feasible_target(rng, q).tolist()
                sampler.couple(p)
                for u in (0.0, math.nextafter(1.0, 0.0), float(rng.random())):
                    ranking, realized = coupling_sample(p, ql, u)
                    assert sampler.draw(u, range(n)) == ranking, (p, ql, u)
                assert [x.hex() for x in sampler.realized] == [x.hex() for x in realized]
                residual = max(abs(r - x) for r, x in zip(realized, p))
                assert sampler.residual.hex() == residual.hex()
                targets += 1
            degenerate += min(q) == 0.0
        assert targets >= 1000
        assert degenerate >= 8  # impossible window lengths take part

    def test_one_sampler_follows_targets_past_one(self):
        """Laws whose running sum passes 1 before the last window, as a law off
        1 by +-5e-11 in one entry can, followed by tiny windows. A window that
        starts at or above 1 is degenerate in the sampler's column table even
        when it is wider than ``ZERO_SNAP``; the draws and realizations still
        equal the one-call oracle's, to the bit, and the dense view its own."""
        rng = np.random.default_rng(73)
        above = 0
        for _ in range(40):
            n = int(rng.integers(3, 31))
            q = _random_law(rng, n)
            m = int(rng.integers(1, n - 1))  # q[m:] holds the tiny windows
            if not q[:m].any():
                q[m - 1] = 1.0
            q[:m] /= q[:m].sum()
            q[m:] = rng.choice([0.0, 2e-11], n - m)
            q[np.argmax(q[:m])] += rng.choice([-5e-11, 5e-11])
            ql = q.tolist()
            sums = np.cumsum(ql).tolist()
            wide = [c for c in range(1, n - 1)
                    if sums[c - 1] >= 1.0 and sums[c] - sums[c - 1] > ZERO_SNAP]
            sampler = CouplingSampler(ql)
            for _ in range(24):
                p = _feasible_target(rng, q).tolist()
                sampler.couple(p)
                assert all(sampler._columns[c][3] == n - 1 for c in wide)
                for u in (0.0, math.nextafter(1.0, 0.0), float(rng.random())):
                    ranking, realized = coupling_sample(p, ql, u)
                    assert sampler.draw(u, range(n)) == ranking, (p, ql, u)
                assert [x.hex() for x in sampler.realized] == [x.hex() for x in realized]
            assert assert_coupling_matches_oracle(np.asarray(p), q)
            above += len(wide)
        assert above >= 50

    @pytest.mark.parametrize("n", [5, 20, 50])
    def test_warm_started_draw_follows_mirror_descent_iterates(self, n):
        """Searches that start at the previous column's pick draw what the
        oracle's searches from 0 draw, on the iterates a ranker couples."""
        rng = np.random.default_rng([71, n])
        for _ in range(3):
            q = _random_law(rng, n)
            ql = q.tolist()
            engine = MirrorDescent(q, horizon=2000)
            sampler = CouplingSampler(ql)
            for _ in range(40):
                p = engine.p
                sampler.couple(p)
                for u in [0.0, math.nextafter(1.0, 0.0), *rng.random(8).tolist()]:
                    ranking, _ = coupling_sample(p, ql, u)
                    assert sampler.draw(u, range(n)) == ranking, (p, ql, u)
                rank = int(rng.integers(engine._offset, n))
                engine.feed(rank, -float(rng.random()) / max(p[rank], 1e-3))

    def test_frozen_two_item_example(self):
        # coupling [[5/6, 0], [1/6, 1]]: window 1 picks rank 0 below u = 5/6
        assert coupling_draw([0.5, 0.5], [0.6, 0.4], 0.8)[0] == (0, 1)
        ranking, realized = coupling_draw([0.5, 0.5], [0.6, 0.4], 0.9)
        assert ranking == (1, 0)
        assert np.allclose(realized, [0.5, 0.5], atol=1e-15)

    def test_degenerate_window(self):
        for u in (0.0, 0.5, 1.0 - 2.0 ** -53):
            assert coupling_draw([0.0, 1.0], [1.0, 0.0], u)[0] == (1, 0)

    def test_top_of_unit_interval(self):
        # p == q couples rank c to window c alone; a u just below 1 can round
        # G[c-1] + u q[c] up to G[c] == F[c] and must not step to rank c+1
        u = 1.0 - 2.0 ** -53
        for q in ([0.2, 0.3, 0.5], [0.6, 0.4], [0.1] * 10):
            ranking, _ = coupling_draw(q, q, u)
            assert ranking == tuple(range(len(q)))
            assert ranking == sample_decomposition(rfsm_decompose(feasible_matrix(q, q)),
                                                  _FixedDraw(u))


def _outcome(fn, *args, **kwargs):
    """``(result, None)`` for a return, ``(None, (type, message))`` for a raise."""
    try:
        return fn(*args, **kwargs), None
    except (ValueError, RuntimeError) as exc:
        return None, (type(exc), str(exc))


def _raised(fn, P, **kwargs):
    """The type and message of what ``fn(P)`` raises, and for an admissibility
    error the first violation's constraint, location and ``amount.hex()``
    (the message rounds the amount)."""
    try:
        fn(P, **kwargs)
    except (ValueError, RuntimeError) as exc:
        first = exc.report.first if isinstance(exc, InadmissibleMatrixError) else None
        return type(exc), str(exc), first and (
            first.constraint, first.location, float(first.amount).hex())
    raise AssertionError("expected a raise")


def assert_decomposition_matches_oracle(P, **kwargs):
    """Same weights, rankings, or exception type and message; True if it returned."""
    got, got_error = _outcome(rfsm_decompose, P, **kwargs)
    want, want_error = _outcome(rfsm_decompose_oracle, P, **kwargs)
    assert got_error == want_error
    if want is not None:
        assert np.array_equal(got.weights, want.weights)
        assert got.permutations == want.permutations
    return want is not None


def assert_coupling_matches_oracle(p, q):
    """Same matrix, or exception type and message; True if it returned."""
    got, got_error = _outcome(feasible_matrix, p, q)
    want, want_error = _outcome(feasible_matrix_oracle, p, q)
    assert got_error == want_error
    if want is not None:
        assert np.array_equal(got, want)
    return want is not None


def _zipf_q(n):
    q = 1.0 / np.arange(1, n + 1)
    return q / q.sum()


# entries at and around the snap threshold: a peel of ZERO_SNAP from
# 2 * ZERO_SNAP leaves exactly ZERO_SNAP, which must survive the snap
_DUST = np.array([-5e-13, 5e-13, -ZERO_SNAP, ZERO_SNAP, 2 * ZERO_SNAP, 3 * ZERO_SNAP])


def _edge_matrix(rng, n):
    """A mixture with snap-size dust, 1e-13 noise, a NaN cell, or a
    perturbation that can make it inadmissible."""
    M, _, _ = random_mixture(rng, n, int(rng.integers(1, 2 * n + 1)))
    kind = rng.integers(4)
    if kind == 0:
        cells = rng.random((n, n)) < 0.3
        M[cells] += rng.choice(_DUST, size=int(cells.sum()))
    elif kind == 1:
        M += 1e-13 * rng.standard_normal((n, n))
    elif kind == 2:
        M[tuple(rng.integers(n, size=2))] = np.nan
    else:
        i, c = rng.integers(n, size=2)
        M[i, c] += rng.uniform(-0.3, 0.3)
        if rng.random() < 0.5:
            a, b = rng.integers(n, size=2)
            M[:, [a, b]] = M[:, [b, a]]
    return M


def _twin_shortfall(rng, n):
    """Lower-triangular Dirichlet columns, admitted by ``atol = 1.0``, with
    two columns shortened by the same ``d`` and one of them off by 0,
    +-3e-13 or 5e-13 more: both run out, in the same round unless the gap
    outlasts the snap, while every other column still holds mass."""
    M = np.zeros((n, n))
    for c in range(n):
        M[c:, c] = rng.dirichlet(np.ones(n - c))
    a, b = rng.choice(n, 2, replace=False)
    d = rng.uniform(0.01, 0.5)
    M[:, a] *= 1.0 - d
    M[:, b] *= 1.0 - d + rng.choice([0.0, 3e-13, -3e-13, 5e-13])
    return M


class TestArrayCodeMatchesListOracle:
    """The array peeling and the array coupling reproduce the list scans
    they replaced bit for bit: the same weights, rankings and matrices, or the
    same errors."""

    def test_dense_mixtures(self):
        # the polytope-dense shape: n = 50, Dirichlet mixtures of 30 rankings
        rng = np.random.default_rng(67)
        for _ in range(20):
            M, _, _ = random_mixture(rng, 50, 30)
            assert assert_decomposition_matches_oracle(M)
            for q in (_zipf_q(50), rng.dirichlet(np.ones(50))):
                assert assert_coupling_matches_oracle(M @ q, q)
        # equal weights tie cells exactly, so a round empties several cells
        for k in (2, 3, 5, 8, 13, 30):
            for n in (4, 20, 50):
                M = sum(selection_matrix_oracle(tuple(rng.permutation(n).tolist()))
                        for _ in range(k)) / k
                assert assert_decomposition_matches_oracle(M)

    def test_columns_running_out_together(self):
        rng = np.random.default_rng(107)
        drained = 0
        for _ in range(4000):
            M = _twin_shortfall(rng, int(rng.integers(3, 13)))
            want = _raised(rfsm_decompose_oracle, M, atol=1.0)
            assert _raised(rfsm_decompose, M, atol=1.0) == want
            drained += want[2] is not None and want[2][0] == "C.2"
        assert drained > 2000, drained

    def test_random_mixtures_and_targets(self):
        rng = np.random.default_rng(71)
        for _ in range(400):
            n = int(rng.integers(1, 31))
            M, _, _ = random_mixture(rng, n, int(rng.integers(1, 2 * n + 1)))
            assert assert_decomposition_matches_oracle(M)
            p, q = _random_target(rng, n)  # zero windows in a quarter of cases
            assert assert_coupling_matches_oracle(p, q)

    def test_edge_matrices(self):
        rng = np.random.default_rng(73)
        returned = raised = 0
        for _ in range(1500):
            M = _edge_matrix(rng, int(rng.integers(1, 13)))
            for atol in (1e-9, 1e-6):
                ok = assert_decomposition_matches_oracle(M, atol=atol)
                returned += ok
                raised += not ok
        assert returned > 1000 and raised > 500

    def test_edge_targets(self):
        rng = np.random.default_rng(79)
        returned = raised = 0
        for _ in range(1500):
            n = int(rng.integers(2, 13))
            p, q = _random_target(rng, n)
            kind = rng.integers(4)
            k = rng.integers(n)
            if kind == 0 and q.sum() > q[k]:  # a narrow window, mass elsewhere
                q[k] = rng.choice([1e-7, 1e-13, 0.0])
                q /= q.sum()
            elif kind == 1:  # window law off 1 by up to the tolerance
                q[rng.integers(n)] += rng.choice([-5e-11, 5e-11])
            elif kind == 2:  # target off by noise
                p = np.clip(p + 1e-13 * rng.standard_normal(n), 0.0, None)
            else:  # a random target, often infeasible
                p = rng.dirichlet(np.ones(n))
            ok = assert_coupling_matches_oracle(p, q)
            returned += ok
            raised += not ok
        assert returned > 1000 and raised > 100

    @pytest.mark.parametrize("q", [[0.2, 0.7999999000000001, 1e-07, 0.0],
                                   [1.0, 5e-11, 0.0]])
    def test_frozen_coupling_edges(self, q):
        assert assert_coupling_matches_oracle(q, q)


def _dusty_mixture(rng, n):
    """A mixture of 1-3 rankings with dust in about half the cells below each
    column's lowest real entry: every dust cell lies in [ZERO_SNAP,
    n * n * ZERO_SNAP), and together they hold at most half of that bound."""
    M, _, _ = random_mixture(rng, n, int(rng.integers(1, 4)))
    lowest = n - 1 - np.argmax(M[::-1] != 0.0, axis=0)
    cells = (np.arange(n)[:, None] > lowest) & (rng.random((n, n)) < 0.5)
    m = int(cells.sum())
    if m:
        M[cells] = rng.uniform(ZERO_SNAP, 0.5 * n * n * ZERO_SNAP / m, m)
    return M


class TestSumCertificate:
    """The peeling sums the matrix only once every picked cell is dust; the
    stops on the dust bound and the errors stay those of the list oracle."""

    def test_stops_on_dust_with_cells_left(self):
        rng = np.random.default_rng(89)
        stopped = 0
        for _ in range(300):
            n = int(rng.integers(2, 21))
            M = _dusty_mixture(rng, n)
            for atol in (1e-9, 1e-6):
                assert assert_decomposition_matches_oracle(M, atol=atol)
            # the dust cells sit below the real mass, so they are reached only
            # after it is gone: a cell no ranking picks means the peeling
            # stopped on the dust bound with cells left
            d = rfsm_decompose(M)
            covered = sum(rank_selection_matrix(order) for order in d.permutations)
            stopped += bool(np.any((M != 0.0) & (covered == 0)))
        assert stopped > 150

    @pytest.mark.parametrize("n, message", [(6, "no mass"), (40, "peeling failed")])
    def test_all_dust(self, n, message):
        """21 cells below 1.5e-12 hold less than the bound 3.6e-11 at n = 6,
        so nothing is peeled; one round over a single cell per column, each
        1.44e-9 (the bound is 1.6e-9 at n = 40) but one of 2e-12, leaves
        more than ``n * 1e-9`` behind."""
        rng = np.random.default_rng(n)
        if message == "no mass":
            M = np.tril(rng.uniform(ZERO_SNAP, 1.5 * ZERO_SNAP, (n, n)))
        else:
            M = np.diag(np.full(n, 0.9 * n * n * ZERO_SNAP))
            M[0, 0] = 2 * ZERO_SNAP
        # atol = 1.0 admits columns of dust, whose sums are within 1 of 1
        assert not assert_decomposition_matches_oracle(M, atol=1.0)
        with pytest.raises((ValueError, RuntimeError), match=message):
            rfsm_decompose(M, atol=1.0)


def _pick_row(rng, n, kind):
    """Column picks of one round: kind 0 never steps down and picks
    ``pick[c] >= c``, as peeling an admissible matrix does; kind 1 steps
    down somewhere; kind 2 never steps down but has ``pick[c] < c``; kind 3
    picks ``pick[c] >= c`` everywhere but steps down once (``n >= 3``)."""
    if kind == 0:
        if rng.random() < 0.5:
            return np.maximum.accumulate(rng.permutation(n))
        return np.maximum.accumulate(np.maximum(rng.integers(0, n, n), np.arange(n)))
    if kind == 1:
        row = rng.integers(0, n, n)
        c = int(rng.integers(1, n))
        row[c], row[c - 1] = np.sort(rng.choice(n, 2, replace=False))
        return row
    if kind == 2:
        return np.sort(rng.integers(0, n - 1, n))  # pick[n-1] <= n - 2
    row = np.maximum.accumulate(np.maximum(rng.integers(0, n, n), np.arange(n)))
    c = int(rng.integers(1, n - 1))
    row[c - 1] = n - 1
    row[c] = c
    return row


class TestRankingsFromPicks:
    @staticmethod
    def assert_matches_list_walk(picks):
        before = picks.copy()
        got = _rankings_from_picks(picks)
        assert got == tuple(_permutation_from_picks(row) for row in picks.tolist())
        assert all(type(i) is int for order in got for i in order)
        assert np.array_equal(picks, before)

    def test_matches_list_walk_row_by_row(self):
        rng = np.random.default_rng(97)
        seen = np.zeros(4, dtype=int)
        for _ in range(40):
            n = int(rng.integers(1, 61))
            kinds = rng.integers(4 if n > 2 else 3 if n > 1 else 1,
                                 size=int(rng.integers(1, 201)))
            self.assert_matches_list_walk(np.array([_pick_row(rng, n, k) for k in kinds]))
            seen += np.bincount(kinds, minlength=4)
        assert seen.min() >= 500

    @pytest.mark.parametrize("kind", [2, 3])
    def test_rows_failing_one_test(self, kind):
        """Every row fails only the ``>= c`` test (kind 2) or only the
        monotone test (kind 3), alone and among simple rows."""
        rng = np.random.default_rng(113 + kind)
        for _ in range(100):
            n = int(rng.integers(3, 31))
            only = np.array([_pick_row(rng, n, kind) for _ in range(int(rng.integers(1, 6)))])
            self.assert_matches_list_walk(only)
            kinds = rng.choice([0, kind], size=int(rng.integers(2, 40)))
            self.assert_matches_list_walk(np.array([_pick_row(rng, n, k) for k in kinds]))

    @pytest.mark.parametrize("rounds", [1, 7])
    def test_single_rank(self, rounds):
        picks = np.zeros((rounds, 1), dtype=np.intp)
        assert _rankings_from_picks(picks) == ((0,),) * rounds
        self.assert_matches_list_walk(picks)
