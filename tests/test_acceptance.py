"""End-to-end acceptance suite.

One test per shipped guarantee; each prints a single
``[criterion NN] PASS/FAIL`` line with the measured numbers (run pytest with
``-s`` to see the lines for passing tests too). Tolerances, horizons, seeds
and slack constants are pinned in-line; every randomized check runs on fixed
seeds so reruns are bit-for-bit identical. The full file takes a few minutes,
dominated by the two 100k-trial sweeps.
"""

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest

from conftest import (
    best_mean_by_window, random_instance, random_lazy_q, random_mixture, rfsm_decompose_oracle,
)
from rankbandit.adversarial import (
    BLORanker,
    EpsilonGreedyRanker,
    lazy_alpha,
    pivot_marginals,
)
from rankbandit.core import (
    Instance,
    optimal_family,
    regret_upper_bound,
    selection_matrix,
    user_select,
)
from rankbandit.elimination import (
    EliminationRanker,
    confidence_event_holds,
    count_inversions,
    inversion_budget,
)
from rankbandit.environments import (
    STREAM_POLICY,
    GaussianPayoffs,
    MultinomialWindows,
    ScheduleWindows,
    TapePayoffs,
    run_episode,
    substream,
)
from rankbandit.extensions import (
    DelayModel,
    GreedyUserEnv,
    PooledDelayPolicy,
    QueuedDelayPolicy,
    estimate_order_sorting,
    estimate_social_learning,
)
from rankbandit.harness import best_fixed_hindsight
from rankbandit.polytope import (
    admissibility_report,
    feasible_matrix,
    is_admissible,
    rank_selection_matrix,
    rfsm_decompose,
)

CHAIN = Instance(utilities=[1.0, 2.0, 3.0, 4.0, 5.0],
                 means=[2.0, 1.5, 1.0, 0.5, 0.0])
HORIZON = 100_000
DELTA = 0.01
LAZY_Q = [0.3, 0.25, 0.2, 0.15, 0.1]


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_optimal_family_matches_brute_force():
    rng = np.random.default_rng(1001)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        utilities, means = random_instance(rng, n)
        fam = optimal_family(Instance(utilities=utilities, means=means))
        for w in range(1, n + 1):
            best = best_mean_by_window(utilities, means, w)
            got = float(means[user_select(fam.representative, utilities, w)])
            assert abs(got - best) <= 1e-12, (utilities, means, w)
            checked += 1
    _line(1, True, f"200 instances, n in 2..6, {checked} (instance, window) "
                   f"pairs matched exactly")


# ---------------------------------------------------------------- criterion 2

def _perturbed(rng, target):
    """A mixture matrix whose first admissibility violation is `target`."""
    while True:
        n = int(rng.integers(3 if target == "C.4" else 2, 7))
        M, _, _ = random_mixture(rng, n, int(rng.integers(n, n * n + 1)))
        if target == "C.1":
            c = int(rng.integers(0, n))
            i = int(rng.integers(c, n))
            P = M.copy()
            P[i, c] = -float(rng.uniform(0.05, 0.3))
            return P
        if target == "C.2":
            c = int(rng.integers(0, n))
            P = M.copy()
            P[:, c] *= float(rng.uniform(0.7, 0.95))
            return P
        if target == "C.3":
            cands = [(i, c) for c in range(1, n) for i in range(c, n)
                     if M[i, c] > 0.1]
            if not cands:
                continue
            i, c = cands[int(rng.integers(0, len(cands)))]
            d = float(rng.uniform(0.05, min(0.3, M[i, c])))
            P = M.copy()
            P[i, c] -= d
            P[int(rng.integers(0, c)), c] += d
            return P
        # C.4: move mass down within column c until its suffix overtakes
        # column c+1, keeping C.1-C.3 intact
        suffix = np.cumsum(M[::-1], axis=0)[::-1]
        for c in range(n - 1):
            for i1 in range(c, n - 1):
                for i2 in range(i1 + 1, n):
                    avail = min(M[i1, c], 1.0 - M[i2, c])
                    if avail <= 0.02:
                        continue
                    for j in range(max(i1 + 1, 1), i2 + 1):
                        slack = suffix[j, c + 1] - suffix[j, c]
                        if slack + 0.02 <= avail:
                            d = min(avail, slack + 0.05)
                            P = M.copy()
                            P[i1, c] -= d
                            P[i2, c] += d
                            return P


def test_criterion_02_polytope_soundness():
    matrices = 0
    for n in range(2, 7):
        utilities = np.random.default_rng(n).permutation(n).astype(float) + 1
        for perm in itertools.permutations(range(n)):
            assert is_admissible(rank_selection_matrix(perm))
            assert is_admissible(selection_matrix(perm, utilities))
            matrices += 1
    rng = np.random.default_rng(1002)
    rejected = 0
    for target in ("C.1", "C.2", "C.3", "C.4"):
        for _ in range(250):
            report = admissibility_report(_perturbed(rng, target))
            assert not report.ok
            assert report.first.constraint == target, report.first
            rejected += 1
    _line(2, True, f"{matrices} ranking matrices admissible (n=2..6 exhaustive); "
                   f"{rejected}/1000 perturbations rejected with the intended "
                   f"constraint named first")


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_decomposition_round_trip():
    rng = np.random.default_rng(1003)
    worst_residual = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        M, _, _ = random_mixture(rng, n, int(rng.integers(1, n * n + 1)))
        decomp = rfsm_decompose(M)
        # the list oracle peels through the same residual floats and raises if
        # any intermediate residual leaves the polytope
        oracle = rfsm_decompose_oracle(M, check_residuals=True)
        assert np.array_equal(decomp.weights, oracle.weights)
        assert decomp.permutations == oracle.permutations
        worst_residual = max(worst_residual,
                             float(np.max(np.abs(decomp.matrix() - M))))
        support_cap = int(np.sum(M > 1e-12)) - n + 1
        assert len(decomp.permutations) <= support_cap
    ok = worst_residual <= 1e-9
    _line(3, ok, f"500 mixtures, n in 2..8: worst recombination error "
                 f"{worst_residual:.2e} (<= 1e-9), support within z-n+1, "
                 f"all residuals admissible")
    assert ok


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_lazy_uniform_exploration():
    rng = np.random.default_rng(1004)
    worst_sum = worst_marginal = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        q = random_lazy_q(rng, n)
        alpha = lazy_alpha(q)
        worst_sum = max(worst_sum, abs(float(np.sum(alpha)) - 1.0))
        marginals = pivot_marginals(alpha, q)
        worst_marginal = max(worst_marginal,
                             float(np.max(np.abs(marginals - 1.0 / n))))
    ok = worst_sum <= 1e-12 and worst_marginal <= 1e-12
    _line(4, ok, f"100 lazy q, n in 2..10: max |sum(alpha)-1| = {worst_sum:.2e}, "
                 f"max |marginal - 1/n| = {worst_marginal:.2e} (both <= 1e-12)")
    assert ok


# ------------------------------------------------------- criteria 5 and 6

def _chain_run(rep: int):
    """Replication ``rep`` of the elimination episodes of criteria 5 and 6; a
    module-level function, so a worker process can run it."""
    policy = EliminationRanker(5, DELTA)
    return run_episode(policy, CHAIN,
                       GaussianPayoffs(CHAIN.means, seed=0, replication=rep),
                       ScheduleWindows.blocks(5, HORIZON), HORIZON)


@pytest.fixture(scope="module")
def chain_runs():
    """20 elimination episodes on the 5-item chain under block windows."""
    # the replications are independent: two processes run them, each one on
    # its own seeds, so every trace is the one a serial run gives
    with ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn")) as pool:
        return list(pool.map(_chain_run, range(20)))


def test_criterion_05_stochastic_regret_scaling(chain_runs):
    at_T = np.mean([tr.regret_at(HORIZON) for tr in chain_runs])
    at_T10 = np.mean([tr.regret_at(HORIZON // 10) for tr in chain_runs])
    ratio = at_T / at_T10
    bound = regret_upper_bound(CHAIN, HORIZON, DELTA)
    ok = ratio < 3.0 and at_T <= 5.0 * bound
    _line(5, ok, f"mean regret(T)={at_T:.2f}, regret(T/10)={at_T10:.2f}, "
                 f"ratio {ratio:.3f} (< 3); bound {bound:.2f}, 5x = {5 * bound:.2f}")
    assert ok, (at_T, at_T10, ratio, bound)


def test_criterion_06_inversion_budget(chain_runs):
    fam = optimal_family(CHAIN)
    held = 0
    worst = 0.0
    violations = []
    for rep, trace in enumerate(chain_runs):
        if not confidence_event_holds(trace.selected, trace.payoffs,
                                      CHAIN.means, DELTA):
            continue
        held += 1
        inv = count_inversions(trace.windows, trace.selected, fam, CHAIN.means)
        for (s, y), count in inv.items():
            budget = inversion_budget(CHAIN.gap(s, y), HORIZON, DELTA, 5)
            worst = max(worst, count / budget)
            if count > budget:
                violations.append((rep, (s, y), count, budget))
    ok = held > 0 and not violations
    _line(6, ok, f"confidence event held on {held}/20 seeds; worst "
                 f"count/budget = {worst:.3f}; {len(violations)} pair "
                 f"violations across good-event seeds")
    assert ok, (f"inversion counts exceeded the budget on good-event seeds; "
                f"worst count/budget {worst:.3f}, e.g. "
                f"(seed, pair, count, budget) = {violations[:4]}")


# ---------------------------------------------------------------- criterion 7

def _criterion_07_regret(rep: int) -> float:
    """Hindsight regret of criterion 7's replication ``rep``; a module-level
    function, so a worker process can run it."""
    rates = [0.8, 0.65, 0.5, 0.35, 0.2]
    utilities = np.arange(1.0, 6.0)
    instance = Instance(utilities=utilities)
    tape = TapePayoffs.bernoulli(rates, HORIZON, seed=0, replication=rep)
    policy = BLORanker(LAZY_Q, horizon=HORIZON, rng=substream(0, rep, STREAM_POLICY))
    trace = run_episode(policy, instance, tape,
                        MultinomialWindows(LAZY_Q, seed=0, replication=rep),
                        HORIZON, benchmark="none")
    bench = best_fixed_hindsight(tape.values, LAZY_Q, utilities)
    return bench.value - float(trace.payoffs.sum())


def test_criterion_07_adversarial_hindsight_regret():
    bound = 3.0 * 2.0 * math.sqrt(2.0 * HORIZON * 5)
    # the replications are independent: two processes run them, each one on
    # its own seeds, so every regret is the one a serial run gives
    with ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn")) as pool:
        regrets = list(pool.map(_criterion_07_regret, range(20)))
    mean_regret = float(np.mean(regrets))
    ok = mean_regret <= bound
    _line(7, ok, f"mean hindsight regret over 20 seeds = {mean_regret:.1f} "
                 f"(range {min(regrets):.1f}..{max(regrets):.1f}), "
                 f"bound 3*2*sqrt(2Tn) = {bound:.0f}")
    assert ok, (mean_regret, bound)


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_unbiased_loss_estimates():
    q = np.array([0.4, 0.3, 0.2, 0.1])
    p = np.array([0.15, 0.2, 0.3, 0.35])  # all entries >= 0.05
    payoffs = np.array([0.9, 0.1, 0.5, 0.7])
    matrix = feasible_matrix(p, q)
    mixture = rfsm_decompose(matrix)
    realized = matrix @ q
    assert np.all(realized >= 0.05)

    pick = np.array([[max(perm[:w]) for w in range(1, 5)]
                     for perm in mixture.permutations])
    rng = substream(8, 0, 0)
    trials = 1_000_000
    terms = rng.choice(len(mixture.permutations), size=trials, p=mixture.weights)
    windows = rng.choice(4, size=trials, p=q)
    picked = pick[terms, windows]

    worst_dev = 0.0
    for i in range(4):
        est = np.where(picked == i, -payoffs[i] / realized[i], 0.0)
        se = est.std(ddof=1) / math.sqrt(trials)
        worst_dev = max(worst_dev, abs(est.mean() - (-payoffs[i])) / se)
    ok = worst_dev <= 3.0
    _line(8, ok, f"1e6 trials: worst per-coordinate deviation of the "
                 f"importance-weighted estimate = {worst_dev:.2f} standard "
                 f"errors (<= 3)")
    assert ok, worst_dev


# ---------------------------------------------------------------- criterion 9

GREEDY_CHECKPOINTS = [1_000, 10_000, 100_000]


def _criterion_09_curve(rep: int) -> list[float]:
    """Regret at criterion 9's checkpoints in replication ``rep``; a
    module-level function, so a worker process can run it."""
    policy = EpsilonGreedyRanker(LAZY_Q, rng=substream(0, rep, STREAM_POLICY))
    trace = run_episode(policy, CHAIN,
                        GaussianPayoffs(CHAIN.means, seed=0, replication=rep),
                        MultinomialWindows(LAZY_Q, seed=0, replication=rep),
                        HORIZON)
    return [trace.regret_at(c) for c in GREEDY_CHECKPOINTS]


def test_criterion_09_epsilon_greedy_scaling():
    # the replications are independent: two processes run them, each one on
    # its own seeds, so every curve is the one a serial run gives
    with ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn")) as pool:
        curves = list(pool.map(_criterion_09_curve, range(20)))
    mean = np.mean(curves, axis=0)
    slope = float(np.polyfit(np.log(GREEDY_CHECKPOINTS), np.log(mean), 1)[0])
    ok = 0.5 <= slope <= 0.8
    _line(9, ok, f"mean regret at 1e3/1e4/1e5 = "
                 f"{mean[0]:.1f}/{mean[1]:.1f}/{mean[2]:.1f}; log-log slope "
                 f"{slope:.4f} in [0.5, 0.8]")
    assert ok, (mean.tolist(), slope)


# --------------------------------------------------------------- criterion 10

DELAY_TAU = 10


def _criterion_10_run(rep: int) -> tuple[float, int]:
    """The queued wrapper's regret excess over the undelayed ranker in
    criterion 10's replication ``rep``, and the pooled wrapper's instance
    count; a module-level function, so a worker process can run it."""
    T, n, tau = 20_000, 5, DELAY_TAU
    q = [0.2] * 5

    def episode(policy):
        return run_episode(policy, CHAIN,
                           GaussianPayoffs(CHAIN.means, seed=0, replication=rep),
                           MultinomialWindows(q, seed=0, replication=rep),
                           T)

    base = episode(EliminationRanker(n, DELTA))
    wrapped = episode(QueuedDelayPolicy(EliminationRanker(n, DELTA),
                                        DelayModel(kind="fixed", tau_max=tau)))
    pool = PooledDelayPolicy(lambda k: EliminationRanker(n, DELTA),
                             DelayModel(kind="fixed", tau_max=tau))
    episode(pool)
    return wrapped.regret_at(T) - base.regret_at(T), pool.pool_size


def test_criterion_10_delayed_feedback():
    n, tau = 5, DELAY_TAU
    slack = 2.0 * n * tau * 2.0  # 2 n tau Delta_max, Delta_max = 2.0
    worst_diff = -math.inf
    max_pool = 0
    # the replications are independent: two processes run them, each one on
    # its own seeds, so every result is the one a serial run gives
    with ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn")) as pool:
        results = list(pool.map(_criterion_10_run, range(10)))
    for rep, (diff, pool_size) in enumerate(results):
        worst_diff = max(worst_diff, diff)
        max_pool = max(max_pool, pool_size)
        assert diff <= slack, (rep, diff)
        assert pool_size <= tau + 1, (rep, pool_size)
    _line(10, True, f"10 matched seeds, tau=10: worst queued-wrapper regret "
                    f"excess {worst_diff:.1f} (<= {slack:.0f}); pooled wrapper "
                    f"peaked at {max_pool} instances (<= {tau + 1})")


# --------------------------------------------------------------- criterion 11

UTILITY_GRID = np.array([1.0, 1.2, 1.4, 1.6, 1.8])  # min gap 0.2


def _criterion_11_sorting(rep: int) -> tuple[bool, int]:
    """Whether criterion 11's sorting replication ``rep`` recovers the exact
    order, and its display count; module-level, so a worker can run it."""
    shuffled = UTILITY_GRID[substream(1, rep, 7).permutation(5)]
    env = GreedyUserEnv(shuffled, MultinomialWindows(LAZY_Q, seed=1,
                                                     replication=rep))
    result = estimate_order_sorting(env.show, 5, budget=2000)
    return result.order == tuple(np.argsort(shuffled)), result.trials


def _criterion_11_social(rep: int) -> tuple[int, bool] | None:
    """The trial count of criterion 11's social-learning replication ``rep``
    and whether its order is wrong, or None if it did not separate;
    module-level, so a worker can run it."""
    rng = substream(2, rep, 9)
    shuffled = UTILITY_GRID[rng.permutation(5)]
    report = estimate_social_learning(
        shuffled, MultinomialWindows(LAZY_Q, seed=2, replication=rep),
        rng=rng, budget=40_000)
    if not report.separated:
        return None
    return report.trials, report.order_by_mean() != tuple(np.argsort(shuffled))


def test_criterion_11_utility_estimation():
    # the replications are independent: two processes run them, each one on
    # its own seeds, so every result is the one a serial run gives
    with ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn")) as pool:
        sorts = list(pool.map(_criterion_11_sorting, range(100)))
        socials = [r for r in pool.map(_criterion_11_social, range(100)) if r is not None]

    exact = sum(found for found, _ in sorts)
    max_trials = max(trials for _, trials in sorts)
    separated = len(socials)
    trials = [trials for trials, _ in socials]
    wrong = sum(bad for _, bad in socials)
    ok = exact == 100 and separated >= 95 and wrong == 0
    _line(11, ok, f"sorting: {exact}/100 exact orders (max {max_trials} "
                  f"displays, budget 2000); social: {separated}/100 separated "
                  f"within 40000 trials (median {int(np.median(trials))}), "
                  f"{wrong} wrong orders")
    assert ok, (exact, separated, wrong)
