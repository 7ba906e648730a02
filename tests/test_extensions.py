import itertools
import math

import numpy as np
import pytest

from rankbandit.core import Instance
from rankbandit.elimination import EliminationRanker
from rankbandit.environments import (
    GaussianPayoffs,
    MultinomialWindows,
    ScheduleWindows,
    run_episode,
    substream,
)
from rankbandit.extensions import (
    DELAY_BLOCK,
    DelayModel,
    GreedyUserEnv,
    PartialOrderError,
    PooledDelayPolicy,
    bold_wrap,
    estimate_order_sorting,
    estimate_social_learning,
    qpmd_wrap,
)


class TestDelayModel:
    def test_parse(self):
        assert DelayModel.parse("none") == DelayModel()
        assert DelayModel.parse("fixed:7") == DelayModel(kind="fixed", tau_max=7)
        assert DelayModel.parse("uniform:0..5") == DelayModel(kind="uniform",
                                                              tau_max=5)

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="start at 0"):
            DelayModel.parse("uniform:1..5")
        for spec in ("gamma:2", "uniform:3", "uniform:0..x", "fixed:x", "fixed:1..2", "fixed"):
            with pytest.raises(ValueError, match=f"^cannot parse delay spec '{spec}'$"):
                DelayModel.parse(spec)

    def test_validation(self):
        with pytest.raises(ValueError):
            DelayModel(kind="geometric", tau_max=1)
        with pytest.raises(ValueError):
            DelayModel(kind="fixed", tau_max=-1)
        with pytest.raises(ValueError):
            DelayModel(kind="none", tau_max=3)

    def test_delays(self):
        assert list(itertools.islice(DelayModel().delays(None), 3)) == [0, 0, 0]
        assert list(itertools.islice(DelayModel(kind="fixed", tau_max=4).delays(None),
                                     3)) == [4, 4, 4]
        rng = np.random.default_rng(3)
        draws = set(itertools.islice(DelayModel(kind="uniform", tau_max=3).delays(rng), 200))
        assert draws == {0, 1, 2, 3}


_WRAPPERS = {
    "qpmd": lambda delay, rng: qpmd_wrap(_StubBase(0), delay, rng),
    "bold": lambda delay, rng: bold_wrap(_StubBase, delay, rng),
}


def _applied_delays(policy, count):
    """Feed ``count`` payoffs and read each one's delay back from its
    in-flight entry ``(due, t, ...)``; without an act nothing is delivered."""
    for t in range(1, count + 1):
        policy.feed(t, 0, 0.0)
    return [due - t for due, t, *_ in sorted(policy._inflight, key=lambda entry: entry[1])]


class TestBlockDraws:
    @pytest.mark.parametrize("tau_max", [1, 4, 9])
    @pytest.mark.parametrize("wrapper", sorted(_WRAPPERS))
    def test_equal_scalar_draws(self, wrapper, tau_max):
        count = 2 * DELAY_BLOCK + 77
        policy = _WRAPPERS[wrapper](DelayModel(kind="uniform", tau_max=tau_max),
                                    np.random.default_rng(tau_max))
        g = np.random.default_rng(tau_max)
        want = [int(g.integers(0, tau_max + 1)) for _ in range(count)]
        assert _applied_delays(policy, count) == want

    @pytest.mark.parametrize("delay", [DelayModel(), DelayModel(kind="fixed", tau_max=3)],
                             ids=["none", "fixed"])
    @pytest.mark.parametrize("wrapper", sorted(_WRAPPERS))
    def test_none_and_fixed_take_no_draw(self, wrapper, delay):
        rng = np.random.default_rng(5)
        policy = _WRAPPERS[wrapper](delay, rng)
        assert _applied_delays(policy, 2 * DELAY_BLOCK) == [delay.tau_max] * (2 * DELAY_BLOCK)
        assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state


def _episode(policy, seed, horizon=400):
    instance = Instance(utilities=[1.0, 2.0, 3.0], means=[1.0, 3.0, 2.0])
    return run_episode(policy, instance,
                       GaussianPayoffs(instance.means, seed=seed),
                       MultinomialWindows([0.5, 0.3, 0.2], seed=seed), horizon)


class TestQueuedDelay:
    def test_zero_delay_is_transparent(self):
        base_trace = _episode(EliminationRanker(n=3, delta=0.05), seed=53)
        wrapped = qpmd_wrap(EliminationRanker(n=3, delta=0.05),
                            DelayModel())
        wrapped_trace = _episode(wrapped, seed=53)
        assert np.array_equal(base_trace.orders, wrapped_trace.orders)
        assert np.array_equal(base_trace.payoffs, wrapped_trace.payoffs)
        assert np.array_equal(base_trace.cum_regret, wrapped_trace.cum_regret)

    def test_queue_conservation(self):
        wrapped = qpmd_wrap(EliminationRanker(n=3, delta=0.05),
                            DelayModel(kind="fixed", tau_max=5))
        horizon = 300
        _episode(wrapped, seed=59, horizon=horizon)
        # every feed is inflight, banked in a queue, or consumed by the base
        assert wrapped.backlog + wrapped.dequeued == horizon
        queued = wrapped.backlog - len(wrapped._inflight)
        assert wrapped.enqueued == wrapped.dequeued + queued

    def test_base_clock_lags_delay(self):
        wrapped = qpmd_wrap(EliminationRanker(n=3, delta=0.05),
                            DelayModel(kind="fixed", tau_max=5))
        horizon = 300
        _episode(wrapped, seed=61, horizon=horizon)
        assert wrapped.base_clock <= horizon + 1
        assert wrapped.base_clock >= horizon - 6 * 3  # waits cost <= tau+1 each

    def test_ranking_held_while_waiting(self):
        wrapped = qpmd_wrap(EliminationRanker(n=3, delta=0.05),
                            DelayModel(kind="fixed", tau_max=4))
        trace = _episode(wrapped, seed=67, horizon=200)
        changes = sum(
            not np.array_equal(trace.orders[k], trace.orders[k - 1])
            for k in range(1, len(trace)))
        # the proposal only moves when the base is stepped
        assert changes <= wrapped.base_clock

    def test_uniform_delay_runs(self):
        wrapped = qpmd_wrap(EliminationRanker(n=3, delta=0.05),
                            DelayModel(kind="uniform", tau_max=6),
                            rng=substream(71, 0, 4))
        trace = _episode(wrapped, seed=71, horizon=300)
        assert trace.regret_at(300) >= 0.0


class _StubBase:
    """Records feeds; proposes a fixed ranking."""

    def __init__(self, ident):
        self.ident = ident
        self.acts = []
        self.feeds = []

    def act(self, t, utilities):
        self.acts.append(t)
        return (2, 1, 0)

    def feed(self, t, item, payoff):
        self.feeds.append((t, item, payoff))


class TestPooledDelay:
    def test_zero_delay_single_instance(self):
        pool = bold_wrap(lambda i: EliminationRanker(n=3, delta=0.05),
                         DelayModel())
        _episode(pool, seed=73, horizon=200)
        assert pool.pool_size == 1

    def test_fixed_delay_pool_size(self):
        pool = bold_wrap(lambda i: EliminationRanker(n=3, delta=0.05),
                         DelayModel(kind="fixed", tau_max=2))
        _episode(pool, seed=79, horizon=200)
        assert pool.pool_size == 3

    def test_round_robin_and_routing(self):
        stubs = {}

        def factory(i):
            stubs[i] = _StubBase(i)
            return stubs[i]

        pool = PooledDelayPolicy(factory, DelayModel(kind="fixed", tau_max=2))
        for t in range(1, 10):
            order = pool.act(t, [1.0, 2.0, 3.0])
            assert order == (2, 1, 0)
            pool.feed(t, t % 3, float(t))
        pool._deliver(10 + 3)
        assert sorted(stubs) == [0, 1, 2]
        # trial t goes to instance (t-1) % 3; its payoff comes back intact
        for i, stub in stubs.items():
            expected = [(k, t % 3, float(t))
                        for k, t in enumerate(range(i + 1, 10, 3), start=1)]
            assert stub.feeds == expected

    def test_missing_feed_breaks_pool_bound(self):
        pool = bold_wrap(lambda i: _StubBase(i), DelayModel())
        pool.act(1, [1.0, 2.0, 3.0])
        with pytest.raises(AssertionError, match="pool grew"):
            pool.act(2, [1.0, 2.0, 3.0])


class TestGreedyUserEnv:
    def test_show_records_history(self):
        env = GreedyUserEnv([0.1, 0.9, 0.5], ScheduleWindows([1, 3, 2], n=3))
        assert env.show((1, 0, 2)) == 1
        assert env.show((0, 2, 1)) == 1
        assert env.show((0, 2, 1)) == 2
        assert env.trials == 3
        assert env.history == [(1, 1), (3, 1), (2, 2)]


def merge_sort_comparison_bound(n: int) -> int:
    """Worst-case comparison count of bottom-up merge sort on n items."""
    if n <= 1:
        return 0
    k = math.ceil(math.log2(n))
    return n * k - 2 ** k + 1


class TestSorting:
    def test_comparison_bound_values(self):
        assert [merge_sort_comparison_bound(n) for n in range(1, 9)] == \
            [0, 1, 3, 5, 8, 11, 14, 17]

    def test_single_item(self):
        res = estimate_order_sorting(lambda order: order[0], 1, budget=10)
        assert res.order == (0,)
        assert res.comparisons == 0 and res.trials == 0

    def test_exact_recovery(self):
        utilities = [0.4, 0.1, 0.5, 0.2, 0.3]
        env = GreedyUserEnv(utilities, MultinomialWindows(
            [0.4, 0.3, 0.2, 0.05, 0.05], seed=83))
        res = estimate_order_sorting(env.show, 5, budget=2000)
        assert res.order == tuple(np.argsort(utilities))
        assert res.comparisons <= merge_sort_comparison_bound(5)
        assert res.trials >= res.comparisons

    def test_window_two_resolves_every_display(self):
        # with w = 2 the second slot wins iff it has the higher utility, so
        # each comparison needs at most two displays
        utilities = [0.7, 0.2, 0.9, 0.4]
        env = GreedyUserEnv(utilities, ScheduleWindows([2] * 100, n=4))
        res = estimate_order_sorting(env.show, 4, budget=100)
        assert res.order == tuple(np.argsort(utilities))
        assert res.trials <= 2 * res.comparisons

    def test_window_one_never_resolves(self):
        env = GreedyUserEnv([0.1, 0.9], ScheduleWindows([1] * 50, n=2))
        with pytest.raises(PartialOrderError):
            estimate_order_sorting(env.show, 2, budget=50)
        assert env.trials == 50

    def test_display_layout(self):
        # candidates occupy the top two slots; the rest follow in index order
        utilities = [0.4, 0.1, 0.5, 0.2]
        windows = MultinomialWindows([0.5, 0.5, 0.0, 0.0], seed=89)
        env = GreedyUserEnv(utilities, windows)

        def show(order):
            rest = [i for i in order[2:]]
            assert rest == sorted(rest)
            assert sorted(order) == [0, 1, 2, 3]
            return env.show(order)

        res = estimate_order_sorting(show, 4, budget=2000)
        assert res.order == tuple(np.argsort(utilities))


class TestSocialLearning:
    def test_separates_easy_instance(self):
        report = estimate_social_learning(
            [1.0, 5.0, 9.0], MultinomialWindows([0.6, 0.3, 0.1], seed=97),
            rng=substream(97, 0, 5), budget=5000)
        assert report.separated
        assert report.order_by_mean() == (0, 1, 2)
        assert np.all(report.counts >= 1)

    def test_prior_intervals_before_any_review(self):
        report = estimate_social_learning(
            [1.0, 5.0], ScheduleWindows([1] * 10, n=2),
            rng=substream(1, 0, 5), budget=0)
        assert not report.separated
        assert np.isnan(report.means).all()
        with pytest.raises(PartialOrderError):
            report.order_by_mean()

    def test_least_reviewed_rotation(self):
        # with window 1 the forced top item is always the pick, so counts
        # stay balanced while intervals overlap; ties resolve to low index
        report = estimate_social_learning(
            [0.0, 0.01, 0.02], ScheduleWindows([1] * 9, n=3),
            rng=substream(3, 0, 5), budget=9)
        assert not report.separated
        assert report.counts.tolist() == [3, 3, 3]

    def test_deterministic(self):
        def run():
            return estimate_social_learning(
                [1.0, 4.0, 7.0], MultinomialWindows([0.6, 0.3, 0.1], seed=103),
                rng=substream(103, 0, 5), budget=3000)

        a, b = run(), run()
        assert a.trials == b.trials
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.means, b.means)
