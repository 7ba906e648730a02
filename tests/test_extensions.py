from __future__ import annotations

import functools
import heapq
import itertools
import math
from collections import deque
from typing import Callable

import numpy as np
import pytest

from conftest import recorded_episode
from rankbandit import adversarial, environments, extensions
from rankbandit.adversarial import BLORanker, EpsilonGreedyRanker
from rankbandit.core import Instance, Permutation, _check_payoff, user_select
from rankbandit.elimination import EliminationRanker
from rankbandit.environments import (
    BLOCK,
    STREAM_PAYOFF,
    STREAM_WINDOW,
    GaussianPayoffs,
    MultinomialWindows,
    ScheduleWindows,
    substream,
)
from rankbandit.extensions import (
    PRIOR_HALFWIDTH,
    REVIEW_HALFWIDTH,
    REVIEW_NOISE_SD,
    DelayModel,
    GreedyUserEnv,
    PartialOrderError,
    PooledDelayPolicy,
    QueuedDelayPolicy,
    SocialLearningReport,
    estimate_order_sorting,
    estimate_social_learning,
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

    @pytest.mark.parametrize("wrapper", ["qpmd", "bold"], ids=["queued", "pooled"])
    def test_uniform_delays_need_a_generator(self, wrapper):
        with pytest.raises(ValueError, match="^uniform delays need rng"):
            DelayModel.parse("uniform:0..2").delays(None)
        with pytest.raises(ValueError, match="^uniform delays need rng"):
            _WRAPPERS[wrapper](lambda i: EliminationRanker(3, 0.1),
                               DelayModel.parse("uniform:0..2"))


# each wrapper around base policies from a factory ``base(index)``
_WRAPPERS = {
    "qpmd": lambda base, delay, rng=None: QueuedDelayPolicy(base(0), delay, rng),
    "bold": lambda base, delay, rng=None: PooledDelayPolicy(base, delay, rng),
}


def _applied_delays(policy, count):
    """Act and feed ``count`` times, reading each payoff's delay back from
    where it waits right after its feed: on its item's heap as ``(due, t,
    payoff)`` in the queued wrapper, in the acting instance's slot as
    ``(due, item, payoff)`` in the pooled one."""
    queued = isinstance(policy, QueuedDelayPolicy)
    delays = []
    for t in range(1, count + 1):
        policy.act(t, None)
        slot = None if queued else policy._active
        policy.feed(t, 0, 0.0)
        due = (next(due for due, fed, _ in policy.queues[0] if fed == t) if queued
               else policy._held[slot][0])
        delays.append(due - t)
    return delays


_RANKERS = {
    "eps-greedy": lambda rng: EpsilonGreedyRanker([0.4, 0.3, 0.2, 0.1], rng=rng,
                                                  explore_constant=0.5),
    "osmd": lambda rng: BLORanker([0.4, 0.3, 0.2, 0.1], horizon=3000, rng=rng),
}


# each random stream served by environments._blocks, built afresh
_STREAMS = {
    "payoffs": lambda: iter(functools.partial(GaussianPayoffs([0.5], seed=7).draw, 0, 1),
                            None),
    "windows": lambda: iter(functools.partial(MultinomialWindows([0.5, 0.3, 0.2], seed=7).draw,
                                              1), None),
    "delays": lambda: DelayModel(kind="uniform", tau_max=4).delays(np.random.default_rng(7)),
    **{name: functools.partial(lambda make: make(np.random.default_rng(7))._uniforms, make)
       for name, make in _RANKERS.items()},
}


@pytest.fixture
def block_sizes(monkeypatch):
    """The sizes each stream built from here on asks of numpy, one list per
    stream in the order they are built."""
    streams = []
    blocks = environments._blocks

    def logged(draw):
        sizes = []
        streams.append(sizes)
        return blocks(lambda size: sizes.append(size) or draw(size))

    for module in (environments, adversarial, extensions):
        monkeypatch.setattr(module, "_blocks", logged)
    return streams


class TestBlockDraws:
    @pytest.mark.parametrize("stream", sorted(_STREAMS))
    def test_blocks_grow_from_32_to_block(self, stream, block_sizes):
        # 32, 64, ... while below BLOCK, then BLOCK twice
        want = list(itertools.takewhile(BLOCK.__gt__, (32 << k for k in itertools.count())))
        want += [BLOCK, BLOCK]
        assert want[:3] == [32, 64, 128]
        values = _STREAMS[stream]()
        assert len(list(itertools.islice(values, sum(want)))) == sum(want)
        assert block_sizes == [want]
        # the next block is drawn only once the last one is used up
        next(values)
        assert block_sizes == [want + [BLOCK]]

    @pytest.mark.parametrize("ranker", sorted(_RANKERS))
    def test_policy_uniforms_equal_scalar_draws(self, ranker):
        count = 2 * BLOCK + 77
        policy = _RANKERS[ranker](np.random.default_rng(11))
        rng = np.random.default_rng(11)
        twin = _RANKERS[ranker](rng)
        # the twin's act takes each uniform from its own scalar random() call
        twin._uniforms = iter(rng.random, None)
        env = np.random.default_rng(13)
        u = [0.3, 0.1, 0.4, 0.2]
        shown = set()
        for t in range(1, count + 1):
            order = policy.act(t, u)
            assert order == twin.act(t, u), t
            shown.add(order)
            pick = user_select(order, u, int(env.integers(1, 5)))
            payoff = float(env.random())
            policy.feed(t, pick, payoff)
            twin.feed(t, pick, payoff)
        assert len(shown) > 4
        assert next(policy._uniforms) == rng.random()

    @pytest.mark.parametrize("tau_max", [1, 4, 9])
    @pytest.mark.parametrize("wrapper", sorted(_WRAPPERS))
    def test_equal_scalar_draws(self, wrapper, tau_max):
        count = 2 * BLOCK + 77
        policy = _WRAPPERS[wrapper](_StubBase, DelayModel(kind="uniform", tau_max=tau_max),
                                    np.random.default_rng(tau_max))
        g = np.random.default_rng(tau_max)
        want = [int(g.integers(0, tau_max + 1)) for _ in range(count)]
        assert _applied_delays(policy, count) == want

    @pytest.mark.parametrize("delay", [DelayModel(), DelayModel(kind="fixed", tau_max=3)],
                             ids=["none", "fixed"])
    @pytest.mark.parametrize("wrapper", sorted(_WRAPPERS))
    def test_none_and_fixed_take_no_draw(self, wrapper, delay):
        rng = np.random.default_rng(5)
        policy = _WRAPPERS[wrapper](_StubBase, delay, rng)
        assert _applied_delays(policy, 2 * BLOCK) == [delay.tau_max] * (2 * BLOCK)
        assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state

    def test_windows_equal_scalar_draws(self):
        count = 2 * BLOCK + 77
        q = np.array([0.5, 0.3, 0.2])
        windows = MultinomialWindows(q, seed=7, replication=2)
        got = [windows.draw(t) for t in range(1, count + 1)]
        g = substream(7, 2, STREAM_WINDOW)
        assert got == [int(g.choice(3, p=q)) + 1 for _ in range(count)]
        assert all(type(w) is int for w in got)

    def test_windows_equal_choice_with_zero_mass(self):
        # n = 50 with 17 windows of zero mass, the first and the last among
        # them: the windows invert the CDF as Generator.choice does
        n, count = 50, 2 * BLOCK + 77
        rng = np.random.default_rng(23)
        q = rng.random(n)
        zero = np.concatenate(([0, n - 1], rng.choice(np.arange(1, n - 1), 15, replace=False)))
        q[zero] = 0.0
        q /= q.sum()
        windows = MultinomialWindows(q, seed=7, replication=2)
        got = [windows.draw(t) for t in range(1, count + 1)]
        g = substream(7, 2, STREAM_WINDOW)
        assert got == [int(g.choice(n, p=q)) + 1 for _ in range(count)]
        g = substream(7, 2, STREAM_WINDOW)
        assert got == (g.choice(n, size=count, p=q) + 1).tolist()
        assert not set(got) & set((zero + 1).tolist())
        assert len(set(got)) == n - zero.size

    def test_payoffs_equal_scalar_draws(self):
        count = 2 * BLOCK + 77
        means = [0.5, -1.0, 2.0]
        payoffs = GaussianPayoffs(means, seed=7, replication=2)
        # the items' draws interleave at random: each item has its own stream
        picks = np.random.default_rng(0).permutation(np.repeat(np.arange(3), count))
        got = {item: [] for item in range(3)}
        for t, item in enumerate(picks.tolist(), 1):
            got[item].append(payoffs.draw(item, t))
        for item, mean in enumerate(means):
            g = substream(7, 2, STREAM_PAYOFF, item)
            assert got[item] == [float(g.normal(mean, 1.0)) for _ in range(count)]
            assert all(type(x) is float for x in got[item])


def _episode(policy, seed, horizon=400):
    """``(trace, orders)`` of an episode on a fixed 3-item instance."""
    instance = Instance(utilities=[1.0, 2.0, 3.0], means=[1.0, 3.0, 2.0])
    return recorded_episode(policy, instance,
                            GaussianPayoffs(instance.means, seed=seed),
                            MultinomialWindows([0.5, 0.3, 0.2], seed=seed), horizon)


class TestQueuedDelay:
    def test_zero_delay_is_transparent(self):
        base_trace, base_orders = _episode(EliminationRanker(n=3, delta=0.05), seed=53)
        wrapped = QueuedDelayPolicy(EliminationRanker(n=3, delta=0.05),
                                    DelayModel())
        wrapped_trace, wrapped_orders = _episode(wrapped, seed=53)
        assert np.array_equal(base_orders, wrapped_orders)
        assert np.array_equal(base_trace.payoffs, wrapped_trace.payoffs)
        assert np.array_equal(base_trace.cum_regret, wrapped_trace.cum_regret)

    def test_queue_conservation(self):
        wrapped = QueuedDelayPolicy(EliminationRanker(n=3, delta=0.05),
                                    DelayModel(kind="fixed", tau_max=5))
        horizon = 300
        _episode(wrapped, seed=59, horizon=horizon)
        # every feed waits on its item's heap or was consumed by the base
        assert wrapped.backlog + wrapped.dequeued == horizon
        waiting = [entry for queue in wrapped.queues.values() for entry in queue]
        assert len(waiting) == wrapped.backlog > 0
        assert all(due == t + 5 for due, t, _ in waiting)

    def test_base_clock_lags_delay(self):
        wrapped = QueuedDelayPolicy(EliminationRanker(n=3, delta=0.05),
                                    DelayModel(kind="fixed", tau_max=5))
        horizon = 300
        _episode(wrapped, seed=61, horizon=horizon)
        assert wrapped.base_clock <= horizon + 1
        assert wrapped.base_clock >= horizon - 6 * 3  # waits cost <= tau+1 each

    def test_ranking_held_while_waiting(self):
        wrapped = QueuedDelayPolicy(EliminationRanker(n=3, delta=0.05),
                                    DelayModel(kind="fixed", tau_max=4))
        _, orders = _episode(wrapped, seed=67, horizon=200)
        changes = sum(
            not np.array_equal(orders[k], orders[k - 1])
            for k in range(1, len(orders)))
        # the proposal only moves when the base is stepped
        assert changes <= wrapped.base_clock

    def test_feed_that_no_act_awaits_raises(self):
        wrapped = QueuedDelayPolicy(EliminationRanker(3, 0.1), DelayModel.parse("fixed:3"))
        u = np.array([1.0, 2.0, 3.0])

        def state():
            return ({item: list(queue) for item, queue in wrapped.queues.items()},
                    wrapped.pending, wrapped.dequeued, wrapped.base_clock)

        with pytest.raises(RuntimeError, match="^trial 1: feed for item 0 follows no act$"):
            wrapped.feed(1, 0, 0.5)
        assert state() == ({}, None, 0, 1)
        order = wrapped.act(2, u)
        assert sorted(order) == [0, 1, 2]
        wrapped.feed(2, 1, 0.5)
        before = state()
        with pytest.raises(RuntimeError, match="^trial 2: feed for item 2 follows no act$"):
            wrapped.feed(2, 2, 0.7)
        assert state() == before == ({1: [(5, 2, 0.5)]}, 1, 0, 1)
        assert wrapped.act(3, u) == order

    def test_uniform_delay_runs(self):
        wrapped = QueuedDelayPolicy(EliminationRanker(n=3, delta=0.05),
                                    DelayModel(kind="uniform", tau_max=6),
                                    rng=substream(71, 0, 4))
        trace, _ = _episode(wrapped, seed=71, horizon=300)
        assert trace.regret_at(300) >= 0.0


class TestDelayedPayoffChecks:
    @pytest.mark.parametrize("wrapper", ["qpmd", "bold"], ids=["queued", "pooled"])
    def test_nonfinite_payoff_raises_at_feed(self, wrapper):
        wrapped = _WRAPPERS[wrapper](lambda i: EliminationRanker(3, 0.1),
                                     DelayModel.parse("fixed:2"))
        order = wrapped.act(1, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="trial 1: payoff nan for item 2 is not finite"):
            wrapped.feed(1, 2, math.nan)
        # nothing is held, and the pooled instance still awaits its payoff
        if wrapper == "qpmd":
            assert wrapped.queues == {}
        else:
            assert wrapped._held == [extensions._AWAITING]
        wrapped.feed(1, 2, 0.5)
        assert wrapped.act(2, [1.0, 2.0, 3.0]) == order

    def test_queued_keeps_a_payoff_its_base_rejects(self):
        wrapped = QueuedDelayPolicy(EliminationRanker(3, 0.1), DelayModel())
        for t in (1, 2):
            wrapped.act(t, [1.0, 2.0, 3.0])
            wrapped.feed(t, 0, 1e308)
        with pytest.raises(ValueError, match="payoff sum non-finite"):
            wrapped.act(3, [1.0, 2.0, 3.0])
        assert (wrapped.dequeued, wrapped.queues[0], wrapped.base_clock,
                wrapped.pending) == (1, [(2, 2, 1e308)], 2, 0)

    def test_pooled_keeps_a_payoff_its_instance_rejects(self):
        pool = PooledDelayPolicy(lambda i: EliminationRanker(3, 0.1), DelayModel())
        for t in (1, 2):
            pool.act(t, [1.0, 2.0, 3.0])
            pool.feed(t, 0, 1e308)
        held = list(pool._held)
        with pytest.raises(ValueError, match="payoff sum non-finite"):
            pool.act(3, [1.0, 2.0, 3.0])
        assert pool._held == held == [(2, 0, 1e308)]


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
        pool = PooledDelayPolicy(lambda i: EliminationRanker(n=3, delta=0.05),
                                 DelayModel())
        _episode(pool, seed=73, horizon=200)
        assert pool.pool_size == 1

    def test_fixed_delay_pool_size(self):
        pool = PooledDelayPolicy(lambda i: EliminationRanker(n=3, delta=0.05),
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
        pool.act(10 + 3, [1.0, 2.0, 3.0])  # every payoff is due by then
        assert sorted(stubs) == [0, 1, 2]
        # trial t goes to instance (t-1) % 3; its payoff comes back intact
        for i, stub in stubs.items():
            expected = [(k, t % 3, float(t))
                        for k, t in enumerate(range(i + 1, 10, 3), start=1)]
            assert stub.feeds == expected

    def test_missing_feed_breaks_pool_bound(self):
        pool = PooledDelayPolicy(lambda i: _StubBase(i), DelayModel())
        pool.act(1, [1.0, 2.0, 3.0])
        with pytest.raises(AssertionError, match="pool grew"):
            pool.act(2, [1.0, 2.0, 3.0])

    def test_feed_that_no_act_awaits_raises(self):
        pool = PooledDelayPolicy(_StubBase, DelayModel())
        with pytest.raises(RuntimeError, match="^trial 1: feed for item 0 follows no act$"):
            pool.feed(1, 0, 0.5)
        pool.act(1, [1.0, 2.0, 3.0])
        pool.feed(1, 0, 0.5)
        with pytest.raises(RuntimeError, match="^trial 1: feed for item 1 follows no act$"):
            pool.feed(1, 1, 0.7)
        pool.act(2, [1.0, 2.0, 3.0])
        assert pool.instances[0].feeds == [(1, 0, 0.5)]


class QueuedDelayOracle:
    """The queued wrapper as it was: ``feed`` pushes every payoff onto one
    in-flight heap, and each ``act`` first delivers the due ones into
    per-item deques, from which the base takes its request's first."""

    def __init__(self, base, delay: DelayModel, rng: np.random.Generator | None = None):
        self.base = base
        self._delays = delay.delays(rng)
        self.queues: dict[int, deque] = {}
        self._inflight: list[tuple[int, int, int, float]] = []
        self.pending: int | None = None  # None while the base's request is open
        self.base_clock = 1
        self._order: Permutation | None = None
        self.enqueued = 0
        self.dequeued = 0

    def _deliver(self, before: int) -> None:
        while self._inflight and self._inflight[0][0] < before:
            _, _, item, payoff = heapq.heappop(self._inflight)
            self.queues.setdefault(item, deque()).append(payoff)
            self.enqueued += 1

    def act(self, t: int, utilities) -> Permutation:
        self._deliver(t)
        pending = self.pending
        if pending is not None:
            queue = self.queues.get(pending)
            if not queue:
                return self._order
            self.base.feed(self.base_clock, pending, queue[0])
            queue.popleft()
            self.dequeued += 1
            self.base_clock += 1
            self.pending = None
        self._order = self.base.act(self.base_clock, utilities)
        return self._order

    def feed(self, t: int, item: int, payoff: float) -> None:
        _check_payoff(t, item, payoff)
        tau = next(self._delays)
        heapq.heappush(self._inflight, (t + tau, t, item, payoff))
        if self.pending is None:
            self.pending = item

    @property
    def backlog(self) -> int:
        return sum(len(q) for q in self.queues.values()) + len(self._inflight)


class PooledDelayOracle:
    """The pooled wrapper as it was: busy flags, and one in-flight heap of
    every payoff, delivered in ``(due, t)`` order at each ``act``."""

    def __init__(self, base_factory: Callable[[int], object], delay: DelayModel,
                 rng: np.random.Generator | None = None):
        self.base_factory = base_factory
        self.delay = delay
        self._delays = delay.delays(rng)
        self.instances: list = []
        self._acts_done: list[int] = []
        self._busy: list[bool] = []
        self._inflight: list[tuple[int, int, int, int, float]] = []
        self._active: int | None = None

    def _deliver(self, before: int) -> None:
        while self._inflight and self._inflight[0][0] < before:
            _, _, inst_id, item, payoff = self._inflight[0]
            self.instances[inst_id].feed(self._acts_done[inst_id], item, payoff)
            heapq.heappop(self._inflight)
            self._busy[inst_id] = False

    def act(self, t: int, utilities) -> Permutation:
        self._deliver(t)
        try:
            free = self._busy.index(False)
        except ValueError:
            free = len(self.instances)
            self.instances.append(self.base_factory(free))
            self._acts_done.append(0)
            self._busy.append(False)
            if self.delay.tau_max + 1 < len(self.instances):
                raise AssertionError(
                    f"pool grew to {len(self.instances)} > tau_max + 1")
        self._acts_done[free] += 1
        self._busy[free] = True
        self._active = free
        return self.instances[free].act(self._acts_done[free], utilities)

    def feed(self, t: int, item: int, payoff: float) -> None:
        _check_payoff(t, item, payoff)
        tau = next(self._delays)
        heapq.heappush(self._inflight, (t + tau, t, self._active, item, payoff))

    @property
    def pool_size(self) -> int:
        return len(self.instances)


class _FeedLog:
    """Passes act and feed on to ``base`` and logs each feed it took."""

    def __init__(self, base):
        self.base = base
        self.feeds = []

    def act(self, t, utilities):
        return self.base.act(t, utilities)

    def feed(self, t, item, payoff):
        self.base.feed(t, item, payoff)
        self.feeds.append((t, item, payoff))


_LOCKSTEP_HORIZON = 200


def _lockstep_case(case):
    """One seeded random case: the environment's generator, the item count,
    a delay model and a factory of logged base rankers of one kind."""
    rng = np.random.default_rng([2027, case])
    n = int(rng.integers(2, 7))
    kind = ["none", "fixed", "uniform"][case % 3]
    delay = DelayModel(kind, 0 if kind == "none" else int(rng.integers(0, 7)))
    ranker = ["elim", "eps-greedy", "osmd"][case // 3 % 3]
    q = 1.0 / np.arange(1, n + 1)
    q /= q.sum()

    def base(index):
        stream = np.random.default_rng([case, 1, index])
        if ranker == "elim":
            made = EliminationRanker(n, 0.1)
        elif ranker == "eps-greedy":
            made = EpsilonGreedyRanker(q, rng=stream, explore_constant=0.5)
        else:
            made = BLORanker(q, horizon=_LOCKSTEP_HORIZON, rng=stream)
        return _FeedLog(made)

    return rng, n, delay, base


# per wrapper: the library's class, its oracle, what a constructor takes of
# a base factory, the state compared after every trial and the feed logs
_LOCKSTEP = {
    "queued": (QueuedDelayPolicy, QueuedDelayOracle, lambda base: base(0),
               lambda p: (p.backlog, p.dequeued, p.base_clock, p.pending),
               lambda p: [p.base.feeds]),
    "pooled": (PooledDelayPolicy, PooledDelayOracle, lambda base: base,
               lambda p: p.pool_size,
               lambda p: [instance.feeds for instance in p.instances]),
}


@pytest.mark.parametrize("wrapper", sorted(_LOCKSTEP))
def test_wrappers_run_in_lockstep_with_the_heap_oracles(wrapper):
    fast, oracle, take, state, logs = _LOCKSTEP[wrapper]
    seen = set()
    for case in range(120):
        rng, n, delay, base = _lockstep_case(case)
        seen.add((delay.kind, delay.tau_max > 0))
        # each side gets its own bases and delay stream from the same seeds
        sides = [cls(take(base), delay, np.random.default_rng([case, 2]))
                 for cls in (fast, oracle)]

        utilities = rng.permutation(n) + 1.0
        means = rng.uniform(0.0, 1.0, n)
        scan = utilities.tolist()
        for t in range(1, _LOCKSTEP_HORIZON + 1):
            order, want = (side.act(t, utilities) for side in sides)
            assert order == want, (case, t)
            pick = user_select(order, scan, int(rng.integers(1, n + 1)))
            payoff = float(rng.normal(means[pick], 0.5))
            for side in sides:
                side.feed(t, pick, payoff)
            assert state(sides[0]) == state(sides[1]), (case, t)
        assert logs(sides[0]) == logs(sides[1]), case
        assert sum(map(len, logs(sides[0]))) > 0
    assert seen == {("none", False), ("fixed", False), ("fixed", True),
                    ("uniform", False), ("uniform", True)}


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


def social_learning_oracle(utilities, windows, *, rng, budget) -> SocialLearningReport:
    """``estimate_social_learning`` as numpy arrays that rebuild every review
    interval and scan every pair on each trial."""
    utilities = np.asarray(utilities, dtype=float)
    n = utilities.size
    counts = np.zeros(n, dtype=np.int64)
    sums = np.zeros(n, dtype=float)

    def bounds() -> tuple[np.ndarray, np.ndarray]:
        lo = np.empty(n)
        hi = np.empty(n)
        for i in range(n):
            if counts[i] == 0:
                lo[i], hi[i] = -PRIOR_HALFWIDTH, PRIOR_HALFWIDTH
            else:
                mid = sums[i] / counts[i]
                r = REVIEW_HALFWIDTH / math.sqrt(counts[i])
                lo[i], hi[i] = mid - r, mid + r
        return lo, hi

    def overlapping(lo: np.ndarray, hi: np.ndarray) -> list[int]:
        out = set()
        for i in range(n):
            for j in range(i + 1, n):
                if lo[i] < hi[j] and lo[j] < hi[i]:
                    out.add(i)
                    out.add(j)
        return sorted(out)

    trials = 0
    while True:
        lo, hi = bounds()
        unresolved = overlapping(lo, hi)
        if not unresolved:
            separated = True
            break
        if trials >= budget:
            separated = False
            break
        target = min(unresolved, key=lambda i: (counts[i], i))
        order = [target] + [i for i in range(n) if i != target]
        trials += 1
        w = windows.draw(trials)
        prefix = order[:w]
        values = [rng.uniform(lo[i], hi[i]) for i in prefix]
        y = prefix[int(np.argmax(values))]
        review = float(utilities[y]) + rng.normal(0.0, REVIEW_NOISE_SD)
        counts[y] += 1
        sums[y] += review

    means = np.divide(sums, counts, out=np.full(n, np.nan), where=counts > 0)
    return SocialLearningReport(
        separated=separated, counts=counts, means=means, trials=trials)


def _assert_same_social_run(utilities, make_windows, make_rng, budget):
    reports, states = [], []
    for body in (estimate_social_learning, social_learning_oracle):
        rng = make_rng()
        reports.append(body(utilities, make_windows(), rng=rng, budget=budget))
        states.append(repr(rng.bit_generator.state))  # Philox state holds arrays
    got, want = reports
    assert (got.separated, got.trials) == (want.separated, want.trials)
    assert got.counts.dtype == want.counts.dtype == np.int64
    assert got.counts.tolist() == want.counts.tolist()
    assert got.means.dtype == want.means.dtype
    assert got.means.tobytes() == want.means.tobytes()
    assert states[0] == states[1]
    return got


class TestSocialLearning:
    @pytest.mark.parametrize("kind", ["schedule", "multinomial"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_numpy_oracle(self, n, kind):
        outcomes = set()
        for seed, budget in enumerate((0, 3, 80, 1500)):
            gen = np.random.default_rng([n, seed])
            utilities = gen.permutation(n) * gen.uniform(1.0, 3.0) + gen.normal()
            if kind == "schedule":
                schedule = gen.integers(1, n + 1, max(budget, 1)).tolist()
                make_windows = functools.partial(ScheduleWindows, schedule, n)
            else:
                q = gen.dirichlet(np.ones(n))
                make_windows = functools.partial(MultinomialWindows, q, seed=seed)
            report = _assert_same_social_run(
                utilities, make_windows, functools.partial(substream, seed, 0, 5), budget)
            outcomes.add(report.separated)
        assert outcomes == ({True} if n == 1 else {True, False})

    @pytest.mark.parametrize("rep", [0, 1])
    def test_matches_numpy_oracle_at_criterion_11_shape(self, rep):
        # acceptance criterion 11's social half: the permutation comes first
        # from the stream that then drives the burn-in
        def make_rng():
            rng = substream(2, rep, 9)
            rng.permutation(5)
            return rng

        utilities = np.array([1.0, 1.2, 1.4, 1.6, 1.8])[substream(2, rep, 9).permutation(5)]
        q = [0.3, 0.25, 0.2, 0.15, 0.1]
        report = _assert_same_social_run(
            utilities, lambda: MultinomialWindows(q, seed=2, replication=rep), make_rng,
            40_000)
        assert report.separated and report.trials > 100

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
