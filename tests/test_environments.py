import csv

import numpy as np
import pytest

from conftest import (
    AdaptiveWindows, FixedPermutationPolicy, InformingPolicy, RecordingPolicy, read_trace_csv,
    recorded_episode, write_tape_csv,
)
from rankbandit.adversarial import EpsilonGreedyRanker
from rankbandit.core import DegenerateInstanceError, Instance, optimal_family
from rankbandit.environments import (
    GaussianPayoffs,
    MultinomialWindows,
    RegretTrace,
    ScheduleExhaustedError,
    ScheduleWindows,
    TapeExhaustedError,
    TapePayoffs,
    run_episode,
    substream,
)


class TestSubstream:
    def test_deterministic(self):
        a = substream(7, 1, 2).random(5)
        b = substream(7, 1, 2).random(5)
        assert np.array_equal(a, b)

    def test_paths_are_independent(self):
        a = substream(7, 1, 2).random(5)
        b = substream(7, 1, 3).random(5)
        c = substream(8, 1, 2).random(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_stream_ids_do_not_collide(self):
        # all (replication, stream, item) triples used by the package must
        # yield pairwise distinct streams
        first = {}
        for rep in range(3):
            for stream in range(6):
                for item in range(4):
                    key = substream(7, rep, stream, item).random(2).tobytes()
                    assert key not in first, (rep, stream, item, first[key])
                    first[key] = (rep, stream, item)


class TestGaussianPayoffs:
    def test_draws_depend_only_on_per_item_count(self):
        a = GaussianPayoffs([0.0, 1.0], seed=3)
        b = GaussianPayoffs([0.0, 1.0], seed=3)
        seq_a = [a.draw(0, t) for t in range(1, 6)]
        # interleave item 1 draws differently; item 0's sequence is unchanged
        seq_b = []
        for t in range(1, 6):
            b.draw(1, t)
            seq_b.append(b.draw(0, t))
        assert seq_a == seq_b

    def test_replication_changes_draws(self):
        a = GaussianPayoffs([0.5], seed=3, replication=0)
        b = GaussianPayoffs([0.5], seed=3, replication=1)
        assert a.draw(0, 1) != b.draw(0, 1)

    def test_moments(self):
        env = GaussianPayoffs([0.7], seed=11)
        xs = np.array([env.draw(0, t) for t in range(1, 4001)])
        assert abs(xs.mean() - 0.7) < 4 / np.sqrt(4000)
        assert abs(xs.var() - 1.0) < 0.15


class TestTapePayoffs:
    def test_draw(self):
        tape = TapePayoffs(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert tape.draw(0, 1) == 1.0
        assert tape.draw(1, 2) == 4.0

    def test_exhaustion(self):
        tape = TapePayoffs(np.zeros((1, 3)))
        with pytest.raises(TapeExhaustedError):
            tape.draw(0, 4)
        with pytest.raises(TapeExhaustedError):
            tape.draw(0, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TapePayoffs(np.zeros(3))
        with pytest.raises(ValueError):
            TapePayoffs(np.array([[np.nan, 0.0]]))

    def test_bernoulli(self):
        tape = TapePayoffs.bernoulli([0.2, 0.8], horizon=5000, seed=13)
        assert set(np.unique(tape.values)) <= {0.0, 1.0}
        assert abs(tape.values[0].mean() - 0.2) < 3 * np.sqrt(0.2 * 0.8 / 5000)
        assert abs(tape.values[1].mean() - 0.8) < 3 * np.sqrt(0.2 * 0.8 / 5000)
        again = TapePayoffs.bernoulli([0.2, 0.8], horizon=5000, seed=13)
        assert np.array_equal(tape.values, again.values)
        other = TapePayoffs.bernoulli([0.2, 0.8], horizon=5000, seed=13,
                                      replication=1)
        assert not np.array_equal(tape.values, other.values)

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        tape = TapePayoffs(rng.random((3, 7)))
        path = tmp_path / "tape.csv"
        write_tape_csv(tape.values, path)
        again = TapePayoffs.from_csv(path)
        assert np.array_equal(tape.values, again.values)  # exact via repr

    def test_from_csv_errors(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,item,payoff\n1,0,0.5\n")
        with pytest.raises(ValueError, match="header"):
            TapePayoffs.from_csv(path)
        path.write_text("t,item,payoff\n2,0,0.5\n")
        with pytest.raises(ValueError, match="unset"):
            TapePayoffs.from_csv(path)


class TestWindows:
    def test_schedule(self):
        win = ScheduleWindows([1, 3, 2], n=3)
        assert [win.draw(t) for t in (1, 2, 3)] == [1, 3, 2]
        with pytest.raises(ScheduleExhaustedError):
            win.draw(4)
        with pytest.raises(ValueError):
            ScheduleWindows([0, 1], n=3)
        with pytest.raises(ValueError):
            ScheduleWindows([4], n=3)

    def test_multinomial_validation(self):
        with pytest.raises(ValueError):
            MultinomialWindows([0.5, 0.6], seed=1)
        with pytest.raises(ValueError):
            MultinomialWindows([1.5, -0.5], seed=1)

    def test_multinomial_frequencies(self):
        q = np.array([0.5, 0.3, 0.2])
        win = MultinomialWindows(q, seed=19)
        draws = np.array([win.draw(t) for t in range(1, 20_001)])
        assert draws.min() >= 1 and draws.max() <= 3
        for w in (1, 2, 3):
            freq = np.mean(draws == w)
            se = np.sqrt(q[w - 1] * (1 - q[w - 1]) / 20_000)
            assert abs(freq - q[w - 1]) < 3.5 * se

    def test_multinomial_deterministic(self):
        a = MultinomialWindows([0.4, 0.6], seed=23)
        b = MultinomialWindows([0.4, 0.6], seed=23)
        assert [a.draw(t) for t in range(1, 50)] == [b.draw(t) for t in range(1, 50)]

    def test_block_schedule(self):
        win = ScheduleWindows.blocks(n=3, horizon=6)
        assert [win.draw(t) for t in range(1, 7)] == [1, 1, 2, 2, 3, 3]
        with pytest.raises(ScheduleExhaustedError):
            win.draw(7)
        with pytest.raises(ValueError):
            ScheduleWindows.blocks(n=3, horizon=7)

    def test_adaptive_sees_history(self):
        def fn(t, history):
            if any(pay > 0.5 for _, _, pay in history):
                return 3
            return 1

        win = AdaptiveWindows(fn, n=3)
        policy = InformingPolicy(FixedPermutationPolicy((0, 1, 2)), win)
        assert win.draw(1) == 1
        policy.feed(1, 0, 0.2)
        assert win.draw(2) == 1
        policy.feed(2, 0, 0.9)
        assert win.draw(3) == 3
        assert win.history == [(1, 0, 0.2), (1, 0, 0.9)]

    def test_adaptive_range_check(self):
        win = AdaptiveWindows(lambda t, h: 5, n=3)
        with pytest.raises(ValueError):
            win.draw(1)


class _TrialLog:
    """Serves as an episode's policy and window source: passes each call on
    and keeps every trial's ``[order, window, pick, payoff]``."""

    def __init__(self, policy, windows):
        self.policy = policy
        self.windows = windows
        self.rows = []

    def act(self, t, utilities):
        order = self.policy.act(t, utilities)
        self.rows.append([order])
        return order

    def draw(self, t):
        w = self.windows.draw(t)
        self.rows[-1].append(w)
        return w

    def feed(self, t, item, payoff):
        self.rows[-1] += [item, payoff]
        self.policy.feed(t, item, payoff)


class _NumpyPayoffs(GaussianPayoffs):
    """Gaussian payoffs handed out as numpy scalars of ``dtype``."""

    def __init__(self, means, seed, dtype):
        super().__init__(means, seed)
        self.dtype = dtype

    def draw(self, item, t):
        return self.dtype(super().draw(item, t))


def per_row_columns(rows, n, record_orders):
    """Window, pick, payoff and order columns written one trial at a time
    into arrays allocated up front, the way the episode loop once did."""
    horizon = len(rows)
    wcol = np.empty(horizon, dtype=np.int64)
    ycol = np.empty(horizon, dtype=np.int64)
    paycol = np.empty(horizon, dtype=float)
    orders = np.empty((horizon, n), dtype=np.int16) if record_orders else None
    for k, (order, w, y, payoff) in enumerate(rows):
        wcol[k] = w
        ycol[k] = y
        paycol[k] = payoff
        if orders is not None:
            orders[k] = order
    return wcol, ycol, paycol, orders


class TestEpisodeColumns:
    @pytest.mark.parametrize("payoff_type", [None, np.float64, np.float32])
    @pytest.mark.parametrize("record_orders", [True, False])
    @pytest.mark.parametrize("horizon", [1, 57])
    def test_columns_equal_a_per_row_writer(self, horizon, record_orders, payoff_type):
        instance = Instance(utilities=[1.0, 2.0, 3.0], means=[1.0, 3.0, 2.0])
        payoffs = (GaussianPayoffs(instance.means, seed=53) if payoff_type is None
                   else _NumpyPayoffs(instance.means, 53, payoff_type))
        log = _TrialLog(EpsilonGreedyRanker([0.5, 0.3, 0.2], rng=np.random.default_rng(59)),
                        MultinomialWindows([0.5, 0.3, 0.2], seed=53))
        # the recorder's orders are checked with the columns, which it must not move
        policy = RecordingPolicy(log, instance.n) if record_orders else log
        trace = run_episode(policy, instance, payoffs, log, horizon)
        got = (trace.windows, trace.selected, trace.payoffs,
               policy.orders if record_orders else None)
        want = per_row_columns(log.rows, instance.n, record_orders)
        for column, expected, dtype, shape in zip(
                got, want, (np.int64, np.int64, np.float64, np.int16),
                ((horizon,),) * 3 + ((horizon, instance.n),)):
            if expected is None:
                assert column is None
                continue
            assert column.dtype == dtype and column.shape == shape
            assert column.dtype == expected.dtype and column.shape == expected.shape
            assert column.tobytes() == expected.tobytes()
        assert trace.trials.dtype == np.int64
        assert trace.trials.tolist() == list(range(1, horizon + 1))
        if payoff_type is not None:
            assert all(type(row[3]) is payoff_type for row in log.rows)

    @pytest.mark.parametrize("lengths", [{7: 2}, {7: 4}, {7: 2, 9: 4}],
                             ids=["short", "long", "short-then-long"])
    def test_order_of_wrong_length_raises(self, lengths):
        # the recorder raises at the first order of the wrong length, also
        # when a later one, an item long, would make the total count right
        instance = Instance(utilities=[1.0, 2.0, 3.0], means=[1.0, 3.0, 2.0])
        with pytest.raises(ValueError, match=f"^trial 7: .* displayed {lengths[7]} "
                                             "items, expected 3$"):
            recorded_episode(_Rotating(3, lengths), instance,
                             GaussianPayoffs(instance.means, seed=5),
                             ScheduleWindows([1] * 12, n=3), 12)
        # the episode loop itself does not check the lengths
        trace = run_episode(_Rotating(3, lengths), instance,
                            GaussianPayoffs(instance.means, seed=5),
                            ScheduleWindows([1] * 12, n=3), 12)
        assert len(trace) == 12


class _Rotating:
    """Shows ``0..n-1`` rotated left by ``t mod n``: a new tuple each trial,
    cut or padded at the trials ``lengths`` names to that many items."""

    def __init__(self, n, lengths):
        self.base = tuple(range(n)) * 2
        self.n = n
        self.lengths = lengths

    def act(self, t, utilities):
        k = t % self.n
        return self.base[k:k + self.lengths.get(t, self.n)]

    def feed(self, t, item, payoff):
        pass


class TestRunEpisode:
    def setup_method(self):
        self.instance = Instance(utilities=[1.0, 2.0, 3.0], means=[1.0, 3.0, 2.0])

    def test_family_member_has_zero_regret(self):
        fam = optimal_family(self.instance)
        trace = run_episode(
            FixedPermutationPolicy(fam.representative), self.instance,
            GaussianPayoffs(self.instance.means, seed=29),
            MultinomialWindows([0.5, 0.3, 0.2], seed=29), 200)
        assert np.all(trace.inst_regret == 0.0)
        assert trace.regret_at(200) == 0.0

    def test_suboptimal_ranking_accrues_known_regret(self):
        # ascending ranking (0, 1, 2): windows 1/2/3 pick items 2, 2, 2...
        # actually picks max utility over prefix of (0, 1, 2)
        trace = run_episode(
            FixedPermutationPolicy((0, 1, 2)), self.instance,
            GaussianPayoffs(self.instance.means, seed=31),
            ScheduleWindows([1, 2, 3, 1], n=3), 4)
        # picks: max-utility item of first w entries -> 0, 1, 2, 0
        assert trace.selected.tolist() == [0, 1, 2, 0]
        # benchmark serves item 1 at w=1,2 and item 1 at w=3 (family leader)
        bench = optimal_family(self.instance).benchmark_by_window
        means = self.instance.means
        expected = [means[bench[0]] - means[0], means[bench[1]] - means[1],
                    means[bench[2]] - means[2], means[bench[0]] - means[0]]
        assert trace.inst_regret.tolist() == expected
        assert trace.cum_regret.tolist() == np.cumsum(expected).tolist()

    def test_benchmark_none_records_zero(self):
        trace = run_episode(
            FixedPermutationPolicy((0, 1, 2)),
            Instance(utilities=[1.0, 2.0, 3.0]),
            GaussianPayoffs([1.0, 3.0, 2.0], seed=31),
            ScheduleWindows([1, 2], n=3), 2, benchmark="none")
        assert np.all(trace.inst_regret == 0.0)

    def test_benchmark_means_requires_means(self):
        with pytest.raises(ValueError, match="means"):
            run_episode(FixedPermutationPolicy((0, 1, 2)),
                        Instance(utilities=[1.0, 2.0, 3.0]),
                        GaussianPayoffs([0.0] * 3, seed=1),
                        ScheduleWindows([1], n=3), 1)

    def test_unknown_benchmark(self):
        with pytest.raises(ValueError, match="benchmark"):
            run_episode(FixedPermutationPolicy((0, 1, 2)), self.instance,
                        GaussianPayoffs([0.0] * 3, seed=1),
                        ScheduleWindows([1], n=3), 1, benchmark="hindsite")

    def test_deterministic_replay(self):
        def make():
            from rankbandit.elimination import EliminationRanker
            policy = EliminationRanker(n=3, delta=0.05)
            return recorded_episode(policy, self.instance,
                                    GaussianPayoffs(self.instance.means, seed=37),
                                    MultinomialWindows([0.5, 0.3, 0.2], seed=37), 300)

        (a, a_orders), (b, b_orders) = make(), make()
        assert np.array_equal(a.payoffs, b.payoffs)
        assert np.array_equal(a.selected, b.selected)
        assert np.array_equal(a_orders, b_orders)
        assert np.array_equal(a.cum_regret, b.cum_regret)

    def test_observe_hook_receives_picks(self):
        # the loop tells the windows nothing: the policy wrapper does
        win = AdaptiveWindows(lambda t, h: 1 + (len(h) % 3), n=3)
        trace = run_episode(InformingPolicy(FixedPermutationPolicy((0, 1, 2)), win),
                            self.instance, GaussianPayoffs(self.instance.means, seed=41),
                            win, 6)
        assert trace.windows.tolist() == [1, 2, 3, 1, 2, 3]
        assert win.history == list(zip(trace.windows.tolist(), trace.selected.tolist(),
                                       trace.payoffs.tolist()))

    def test_regret_at_reads_only_the_trials_of_the_trace(self):
        trace = run_episode(
            FixedPermutationPolicy((0, 1, 2)), self.instance,
            GaussianPayoffs(self.instance.means, seed=31),
            ScheduleWindows([1, 2, 3, 1], n=3), 4)
        assert trace.cum_regret.tolist() == [2.0, 2.0, 2.0, 4.0]
        assert trace.regret_at(4) == 4.0
        for t in (0, -1, 5):
            with pytest.raises(ValueError, match=rf"trial {t} outside 1\.\.4"):
                trace.regret_at(t)

    @pytest.mark.parametrize("sequence", [None])
    def test_tied_means_fail_before_trial_one(self, sequence):
        class NoTrials:
            def act(self, t, utilities):
                raise AssertionError(f"trial {t} started")

        inst = Instance(utilities=[1.0, 2.0, 3.0], means=[1.0, 2.0, 2.0])
        with pytest.raises(DegenerateInstanceError):
            run_episode(NoTrials(), inst, GaussianPayoffs(inst.means, seed=1),
                        ScheduleWindows([1, 2], n=3), 2)

    def test_trace_csv_round_trip(self, tmp_path):
        trace = run_episode(FixedPermutationPolicy((0, 1, 2)), self.instance,
                            GaussianPayoffs(self.instance.means, seed=47),
                            MultinomialWindows([0.5, 0.3, 0.2], seed=47), 50)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        again = read_trace_csv(path)
        assert np.array_equal(trace.trials, again.trials)
        assert np.array_equal(trace.windows, again.windows)
        assert np.array_equal(trace.selected, again.selected)
        assert np.array_equal(trace.payoffs, again.payoffs)
        assert np.array_equal(trace.cum_regret, again.cum_regret)

    def test_trace_csv_matches_elementwise_writer(self, tmp_path):
        def elementwise_to_csv(trace, path):
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(trace.CSV_COLUMNS)
                for k in range(len(trace)):
                    writer.writerow([
                        int(trace.trials[k]), int(trace.windows[k]), int(trace.selected[k]),
                        repr(float(trace.payoffs[k])), repr(float(trace.inst_regret[k])),
                        repr(float(trace.cum_regret[k])),
                    ])

        # a social burn-in pad row (w = 0, y = -1) and awkward floats, then no rows
        inst = np.array([0.0, -0.0, 5e-324, 1e300, -0.25, 1 / 3])
        for rows in (6, 0):
            trace = RegretTrace(
                trials=np.arange(1, 7, dtype=np.int64)[:rows],
                windows=np.array([0, 1, 2, 3, 2, 1], dtype=np.int64)[:rows],
                selected=np.array([-1, 0, 2, 1, 0, 2], dtype=np.int64)[:rows],
                payoffs=np.array([0.0, -0.0, 1e300, 5e-324, -1.5, 0.1])[:rows],
                inst_regret=inst[:rows], cum_regret=np.cumsum(inst)[:rows])
            trace.to_csv(tmp_path / "new.csv")
            elementwise_to_csv(trace, tmp_path / "old.csv")
            assert (tmp_path / "new.csv").read_bytes() == \
                (tmp_path / "old.csv").read_bytes()

    def test_trace_csv_header_check(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,window,picked,payoff,inst_regret,cum_regret\n")
        with pytest.raises(ValueError, match="header"):
            read_trace_csv(path)

    def test_trace_csv_empty_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="unexpected trace header"):
            read_trace_csv(path)

    def test_trace_csv_short_row(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,window,selected,payoff,inst_regret,cum_regret\n"
                        "1,1,0,0.5,0.0,0.0\n1,2\n")
        with pytest.raises(ValueError, match=r"trace row \['1', '2'\] does not have 6 fields"):
            read_trace_csv(path)
