import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    brute_force_best_fixed, hindsight_linprog, read_trace_csv, selection_matrix_oracle,
    write_tape_csv,
)
import rankbandit
from rankbandit.core import DegenerateInstanceError, regret_upper_bound, utility_ranks
from rankbandit.environments import RegretTrace, TapePayoffs
from rankbandit.harness import (
    ConfigError,
    ExperimentConfig,
    _bound_values,
    _checkpoints,
    best_fixed_hindsight,
    default_sort_budget,
    run_experiment,
    run_replication,
)
from rankbandit.polytope import _permutation_from_picks, is_admissible


def summarize_traces(trace_dir, checkpoints: list[int]) -> tuple[list[float], list[float]]:
    """Recompute mean/se checkpoint regret from stored trace CSVs."""
    paths = sorted(Path(trace_dir).glob("rep*.csv"))
    if not paths:
        raise FileNotFoundError(f"no trace files under {trace_dir}")
    curves = []
    for path in paths:
        trace = read_trace_csv(path)
        curves.append([float(trace.cum_regret[t - 1]) for t in checkpoints])
    arr = np.asarray(curves)
    mean = arr.mean(axis=0)
    se = (arr.std(axis=0, ddof=1) / math.sqrt(len(paths))
          if len(paths) > 1 else np.zeros(arr.shape[1]))
    return [float(x) for x in mean], [float(x) for x in se]


def hindsight_regret(trace: RegretTrace, tape: TapePayoffs, q, utilities) -> RegretTrace:
    """Oracle for the tape scoring of ``run_replication``: ``trace`` with its
    regret columns against the best fixed marginals over the trials played."""
    played = tape.values[:, :len(trace)]
    inst = best_fixed_hindsight(played, q, utilities).marginals @ played - trace.payoffs
    return replace(trace, inst_regret=inst, cum_regret=np.cumsum(inst))


def base_config(**overrides) -> dict:
    raw = {
        "instance": {"utilities": [1.0, 2.0, 3.0], "means": [1.0, 3.0, 2.0]},
        "window": {"type": "multinomial", "q": [0.5, 0.3, 0.2]},
        "payoffs": {"type": "gaussian"},
        "policy": {"name": "elim", "delta": 0.05},
        "horizon": 200,
        "replications": 2,
        "seed": 11,
    }
    raw.update(overrides)
    return raw


class TestConfig:
    def test_happy_path(self):
        cfg = ExperimentConfig.from_dict(base_config())
        assert cfg.instance.n == 3
        assert cfg.policy["delta"] == 0.05
        assert cfg.delay == "none"
        assert cfg.label == "experiment"

    def test_round_trip(self):
        cfg = ExperimentConfig.from_dict(base_config(label="demo", delay="fixed:3"))
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config()))
        assert ExperimentConfig.from_json(path).horizon == 200

    @pytest.mark.parametrize("mutate, path_fragment", [
        (lambda r: r.pop("instance"), "instance"),
        (lambda r: r.pop("horizon"), "horizon"),
        (lambda r: r["instance"].pop("utilities"), "utilities"),
        (lambda r: r["window"].update(type="poisson"), "window.type"),
        (lambda r: r["window"].pop("q"), "window.q"),
        (lambda r: r["window"].update(q=[0.5, 0.5]), "window.q"),
        (lambda r: r["window"].update(q=[0.5, 0.6, -0.1]), "window.q"),
        (lambda r: r["window"].update(q=[0.5, 0.3, 0.3]), "window.q"),
        (lambda r: r["payoffs"].update(type="cauchy"), "payoffs.type"),
        (lambda r: r["policy"].update(name="ucb"), "policy.name"),
        (lambda r: r["policy"].update(delta=0.0), "policy.delta"),
        (lambda r: r.update(horizon=0), "horizon"),
        (lambda r: r.update(replications=0), "replications"),
        (lambda r: r.update(seed=-1), "seed"),
        (lambda r: r.update(delay="gamma:3"), "delay"),
        (lambda r: r.update(estimate="guess"), "estimate"),
        (lambda r: r.update(estimate="sort", estimate_budget=0), "estimate_budget"),
        (lambda r: r["instance"].update(utility_sequence=[[1, 2, 3]]),
         "instance.utility_sequence"),
        (lambda r: r.update(window={"type": "schedule", "schedule": [1, 2]}),
         "window.schedule"),
        (lambda r: r["policy"].update(delay_wrapper="fifo"), "policy.delay_wrapper"),
        (lambda r: r.update(delay="fixed:2", policy={"name": "elim", "delay_wrapper": "fifo"}),
         "policy.delay_wrapper"),
        (lambda r: r.update(policy={"name": "osmd", "eta": -1}), "policy.eta"),
        (lambda r: r.update(policy={"name": "osmd", "eta": 0.0}), "policy.eta"),
        (lambda r: r.update(policy={"name": "osmd", "eta": math.nan}), "policy.eta"),
        (lambda r: r.update(policy={"name": "osmd", "eta": math.inf}), "policy.eta"),
        (lambda r: r.update(policy={"name": "osmd", "eta": "0.1"}), "policy.eta"),
        (lambda r: r.update(policy={"name": "eps-greedy", "explore_constant": "big"}),
         "policy.explore_constant"),
        (lambda r: r.update(policy={"name": "eps-greedy", "explore_constant": 0}),
         "policy.explore_constant"),
        (lambda r: r.update(policy={"name": "eps-greedy", "explore_constant": True}),
         "policy.explore_constant"),
        # numbers are type-checked, not coerced: the error starts with the field
        pytest.param(lambda r: r.update(delay="uniform:3"),
                     "^delay: cannot parse delay spec 'uniform:3'$", id="delay-one-bound"),
        pytest.param(lambda r: r.update(delay="fixed:x"),
                     "^delay: cannot parse delay spec 'fixed:x'$", id="delay-not-a-number"),
        pytest.param(lambda r: r.update(horizon="ten"), "^horizon: ", id="horizon-string"),
        pytest.param(lambda r: r.update(horizon=True), "^horizon: ", id="horizon-bool"),
        pytest.param(lambda r: r.update(replications=2.7), "^replications: ",
                     id="replications-fraction"),
        pytest.param(lambda r: r.update(seed="3"), "^seed: ", id="seed-string"),
        pytest.param(lambda r: r.update(seed=math.inf), "^seed: ", id="seed-inf"),
        pytest.param(lambda r: r.update(estimate="sort", estimate_budget=2.5),
                     "^estimate_budget: ", id="estimate_budget-fraction"),
        pytest.param(lambda r: r["policy"].update(delta="0.05"), "^policy.delta: ",
                     id="delta-string"),
        pytest.param(lambda r: r.update(window={"type": "schedule", "schedule": "1" * 200}),
                     "^window.schedule: ", id="schedule-not-a-list"),
        pytest.param(lambda r: r.update(window={"type": "schedule",
                                                "schedule": [1, "2"] + [1] * 198}),
                     r"^window.schedule\[1\]: ", id="schedule-entry-string"),
        pytest.param(lambda r: r.update(window={"type": "schedule", "schedule": [1.5] * 200}),
                     r"^window.schedule\[0\]: ", id="schedule-entry-fraction"),
        pytest.param(lambda r: r.update(output_dir=5), "^output_dir: ", id="output_dir-number"),
        pytest.param(lambda r: r["instance"].update(utilities=[math.nan, 2.0, 3.0]),
                     "^instance.utilities: ", id="utilities-nan"),
        pytest.param(lambda r: r["instance"].update(utilities=[math.nan, math.nan, 3.0]),
                     "^instance.utilities: ", id="utilities-nan-pair"),
        pytest.param(lambda r: r["instance"].update(utilities={"a": 1}),
                     "^instance.utilities: ", id="utilities-object"),
        pytest.param(lambda r: r["instance"].update(n=3, utilities=5),
                     "^instance.utilities: ", id="utilities-number-with-n"),
        pytest.param(lambda r: r["instance"].update(means={"a": 1}),
                     "^instance.means: ", id="means-object"),
        pytest.param(lambda r: r.update(payoffs={"type": "tape", "path": 987654}),
                     "^payoffs.path: must be a string", id="path-number"),
        pytest.param(lambda r: r.update(payoffs={"type": "tape", "path": ["t.csv"]}),
                     "^payoffs.path: must be a string", id="path-list"),
        pytest.param(lambda r: r.update(payoffs={"type": "bernoulli",
                                                 "rates": [[0.1, 0.2, 0.3]]}),
                     r"^payoffs.rates\[0\]: ", id="rates-nested"),
        pytest.param(lambda r: r.update(payoffs={"type": "bernoulli",
                                                 "rates": ["a", 0.2, 0.3]}),
                     r"^payoffs.rates\[0\]: ", id="rates-entry-string"),
        pytest.param(lambda r: r.update(payoffs={"type": "bernoulli", "rates": "abc"}),
                     "^payoffs.rates: ", id="rates-not-a-list"),
        pytest.param(lambda r: r["instance"].update(n=3.7), "^instance.n: ", id="n-fraction"),
        pytest.param(lambda r: r["instance"].update(n="x"), "^instance.n: ", id="n-string"),
        # every section is a JSON object
        pytest.param(lambda r: r.update(instance=5), "^instance: ", id="instance-number"),
        pytest.param(lambda r: r.update(window=5), "^window: ", id="window-number"),
        pytest.param(lambda r: r.update(payoffs="gauss"), "^payoffs: ", id="payoffs-string"),
        pytest.param(lambda r: r.update(policy=["elim"]), "^policy: ", id="policy-list"),
        pytest.param(lambda r: r.update(payoffs=None), "^payoffs: ", id="payoffs-null"),
        # every policy's delta feeds the elimination bound in the report
        pytest.param(lambda r: r.update(policy={"name": "osmd", "delta": [0.1]}),
                     "^policy.delta: ", id="osmd-delta-list"),
        pytest.param(lambda r: r.update(policy={"name": "eps-greedy", "delta": 0}),
                     "^policy.delta: ", id="eps-greedy-delta-zero"),
    ])
    def test_field_errors_name_the_path(self, mutate, path_fragment):
        raw = base_config()
        mutate(raw)
        with pytest.raises(ConfigError, match=path_fragment.replace(".", r"\.")):
            ExperimentConfig.from_dict(raw)

    def test_schedule_window_validation(self):
        raw = base_config(window={"type": "schedule", "schedule": [1, 4]})
        with pytest.raises(ConfigError, match="window.schedule"):
            ExperimentConfig.from_dict(raw)

    def test_bernoulli_rates_validation(self):
        raw = base_config(payoffs={"type": "bernoulli", "rates": [0.5, 0.5]})
        with pytest.raises(ConfigError, match="payoffs.rates"):
            ExperimentConfig.from_dict(raw)
        raw = base_config(payoffs={"type": "bernoulli", "rates": [0.5, 0.5, 1.5]})
        with pytest.raises(ConfigError, match="payoffs.rates"):
            ExperimentConfig.from_dict(raw)

    def test_tape_requires_path(self):
        raw = base_config(payoffs={"type": "tape"})
        with pytest.raises(ConfigError, match="payoffs.path"):
            ExperimentConfig.from_dict(raw)

    def test_gaussian_requires_means(self):
        raw = base_config()
        raw["instance"] = {"utilities": [1.0, 2.0, 3.0]}
        with pytest.raises(ConfigError, match="instance.means"):
            ExperimentConfig.from_dict(raw)

    def test_marginal_policies_require_known_q(self):
        raw = base_config(policy={"name": "osmd"},
                          window={"type": "schedule", "schedule": [1] * 200})
        with pytest.raises(ConfigError, match="window.type"):
            ExperimentConfig.from_dict(raw)

    def test_eps_greedy_requires_lazy_q(self):
        raw = base_config(policy={"name": "eps-greedy"},
                          window={"type": "multinomial", "q": [0.2, 0.3, 0.5]})
        with pytest.raises(ConfigError, match="window.q"):
            ExperimentConfig.from_dict(raw)

    def test_blocks_divisibility(self):
        raw = base_config(window={"type": "blocks"}, horizon=200)
        with pytest.raises(ConfigError, match="horizon"):
            ExperimentConfig.from_dict(raw)
        raw = base_config(window={"type": "blocks"}, horizon=201)
        assert ExperimentConfig.from_dict(raw).horizon == 201

    @pytest.mark.parametrize("policy", [
        {"name": "osmd", "eta": 0.05},
        {"name": "eps-greedy", "explore_constant": 2},
        {"name": "elim", "delay_wrapper": "bold"},
    ])
    def test_valid_policy_numbers_accepted(self, policy):
        cfg = ExperimentConfig.from_dict(base_config(policy=policy))
        assert cfg.policy.items() >= policy.items()

    def test_integral_numbers_accepted(self):
        raw = base_config(horizon=200.0, replications=np.int64(3), seed=11.0,
                          window={"type": "schedule", "schedule": [1.0, 2] * 100})
        cfg = ExperimentConfig.from_dict(raw)
        assert (cfg.horizon, cfg.replications, cfg.seed) == (200, 3, 11)
        assert all(type(x) is int for x in (cfg.horizon, cfg.replications, cfg.seed))
        assert cfg.window["schedule"] == [1, 2] * 100
        assert all(type(w) is int for w in cfg.window["schedule"])

    def test_q_within_tolerance_accepted(self):
        raw = base_config(window={"type": "multinomial", "q": [0.5, 0.3, 0.2 + 5e-11]})
        assert ExperimentConfig.from_dict(raw).window["q"][2] == 0.2 + 5e-11


def tape_config(path, horizon: int = 50) -> dict:
    return base_config(
        instance={"utilities": [1.0, 2.0, 3.0, 4.0, 5.0]},
        window={"type": "multinomial", "q": [0.3, 0.25, 0.2, 0.15, 0.1]},
        payoffs={"type": "tape", "path": str(path)}, policy={"name": "osmd"},
        horizon=horizon, replications=1)


class TestTapeAtLoad:
    """A tape file that cannot serve the whole episode fails in ``from_dict``."""

    def test_short_tape(self, tmp_path):
        path = tmp_path / "tape.npy"
        np.save(path, np.random.default_rng(0).random((5, 10)))
        with pytest.raises(ConfigError, match=r"payoffs\.path: .*10 columns, horizon is 50"):
            ExperimentConfig.from_dict(tape_config(path))
        assert ExperimentConfig.from_dict(tape_config(path, horizon=10)).horizon == 10

    def test_tape_rows_must_match_n(self, tmp_path):
        path = tmp_path / "tape.npy"
        np.save(path, np.random.default_rng(0).random((7, 50)))
        with pytest.raises(ConfigError, match=r"payoffs\.path: .*7 rows, instance n is 5"):
            ExperimentConfig.from_dict(tape_config(path))

    def test_csv_tape_rows_must_match_n(self, tmp_path):
        path = tmp_path / "tape.csv"
        write_tape_csv(np.random.default_rng(0).random((7, 50)), path)
        with pytest.raises(ConfigError, match=r"payoffs\.path: .*7 rows"):
            ExperimentConfig.from_dict(tape_config(path))

    def test_unreadable_tape(self, tmp_path):
        with pytest.raises(ConfigError, match=r"payoffs\.path"):
            ExperimentConfig.from_dict(tape_config(tmp_path / "missing.npy"))
        path = tmp_path / "tape.csv"
        for text, message in (("time,item,payoff\n1,0,1.0\n", "header"), ("", "header"),
                              ("t,item,payoff\n", "no rows"),
                              ("t,item,payoff\n1,0\n", "3 fields")):
            path.write_text(text)
            with pytest.raises(ConfigError, match=rf"payoffs\.path: .*{message}"):
                ExperimentConfig.from_dict(tape_config(path))

    def test_tape_is_read_once(self, tmp_path, monkeypatch):
        # from_dict reads the file; the replications reuse what it read
        import rankbandit.harness as harness

        path = tmp_path / "tape.npy"
        np.save(path, np.random.default_rng(19).random((5, 50)))
        calls = []
        load = harness._load_tape

        def counted(*args):
            calls.append(args)
            return load(*args)

        monkeypatch.setattr(harness, "_load_tape", counted)
        cfg = ExperimentConfig.from_dict({**tape_config(path), "replications": 3})
        report = run_experiment(cfg)
        assert len(calls) == 1
        assert len(report.traces) == 3
        assert "tape" not in cfg.to_dict()


class TestCheckpoints:
    def test_values(self):
        assert _checkpoints(1) == [1]
        assert _checkpoints(10) == [10]
        assert _checkpoints(101) == [10, 100, 101]
        assert _checkpoints(100_000) == [10, 100, 1000, 10_000, 100_000]

    def test_sort_budget(self):
        assert default_sort_budget(5, 1000) == math.ceil(
            4 * 25 * math.log2(5) * math.log(1000))
        assert default_sort_budget(1, 10) == math.ceil(4 * math.log(10))


class TestBounds:
    def test_active_bound_selection(self):
        cfg = ExperimentConfig.from_dict(base_config())
        bounds = _bound_values(cfg)
        assert bounds["active"] == "elimination"
        assert bounds["elimination"] == pytest.approx(
            regret_upper_bound(cfg.instance, 200, 0.05))
        assert bounds["mirror_descent"] == pytest.approx(
            2.0 * math.sqrt(2.0 * 200 * 3))

    def test_osmd_bound(self):
        cfg = ExperimentConfig.from_dict(base_config(policy={"name": "osmd"}))
        assert _bound_values(cfg)["active"] == "mirror_descent"

    def test_no_means_no_elimination_bound(self):
        raw = base_config(payoffs={"type": "bernoulli", "rates": [0.2, 0.8, 0.5]})
        raw["instance"] = {"utilities": [1.0, 2.0, 3.0]}
        bounds = _bound_values(ExperimentConfig.from_dict(raw))
        assert bounds["elimination"] is None

    def test_no_elimination_bound_under_delay(self):
        # the bound assumes every pick is fed back before the next trial;
        # zero delay replays the undelayed trajectory, so it keeps the bound
        raw = base_config(instance={"utilities": [1.0, 2.0, 3.0, 4.0, 5.0],
                                    "means": [2.0, 1.5, 1.0, 0.5, 0.0]},
                          window={"type": "blocks"}, horizon=500, replications=1,
                          delay="fixed:400")
        report = run_experiment(ExperimentConfig.from_dict(raw))
        assert report.bounds["elimination"] is None
        assert report.bounds["active"] == "elimination"
        for delay in ("none", "fixed:0", "uniform:0..0"):
            cfg = ExperimentConfig.from_dict({**raw, "delay": delay})
            assert _bound_values(cfg)["elimination"] == pytest.approx(
                regret_upper_bound(cfg.instance, 500, 0.05))


def hindsight_oracle(tape, q, utilities):
    """The best fixed ranking (rank labels) and its selection matrix, rebuilt
    from the picks: column ``c`` picks the lowest rank ``a >= c`` of the
    largest rank total."""
    ranks = utility_ranks(utilities)
    rank_totals = np.zeros(len(ranks))
    rank_totals[ranks] = np.asarray(tape, dtype=float).sum(axis=1)
    picks = [c + int(np.argmax(rank_totals[c:])) for c in range(len(ranks))]
    ranking = _permutation_from_picks(picks)
    matrix = selection_matrix_oracle(ranking)
    assert matrix.argmax(axis=0).tolist() == picks
    return ranking, matrix


class TestHindsight:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(107)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            tape = rng.random((n, 30))
            q = rng.dirichlet(np.ones(n))
            utilities = rng.permutation(n).astype(float) + 1
            bench = best_fixed_hindsight(tape, q, utilities)
            assert bench.value == pytest.approx(
                brute_force_best_fixed(tape, q, utilities), rel=1e-7, abs=1e-7)

    def test_closed_form_against_linprog(self):
        """The closed form against the LP over the admissible polytope: same
        value, the marginals of the oracle's 0/1 admissible matrix bit for
        bit, and the LP's marginals whenever the optimum is unique (distinct
        rank totals)."""
        rng = np.random.default_rng(113)
        distinct = tied = 0
        for k in range(600):
            n = int(rng.integers(1, 21))
            if k % 2:
                # short Bernoulli tapes, so rank totals often tie
                horizon = int(rng.integers(1, 6))
                tape = (rng.random((n, horizon)) < rng.random((n, 1))).astype(float)
            else:
                tape = rng.normal(size=(n, int(rng.integers(1, 40))))
            q = rng.dirichlet(np.ones(n))
            if k % 3 == 0:
                q[rng.random(n) < 0.4] = 0.0  # zero windows
                q[int(rng.integers(0, n))] += 0.1
                q /= q.sum()
            utilities = rng.permutation(n) + rng.random()
            bench = best_fixed_hindsight(tape, q, utilities)
            value, marginals = hindsight_linprog(tape, q, utilities)
            tol = 1e-9 * max(1.0, abs(value))
            assert abs(bench.value - value) <= tol, k
            if n <= 6:
                assert abs(bench.value - brute_force_best_fixed(tape, q, utilities)) <= tol, k
            ranking, matrix = hindsight_oracle(tape, q, utilities)
            assert sorted(ranking) == list(range(n)), k
            assert np.all((matrix == 0.0) | (matrix == 1.0)), k
            assert is_admissible(matrix), k
            rank_marginals = matrix @ q
            assert rank_marginals[utility_ranks(utilities)].tobytes() == \
                bench.marginals.tobytes(), k
            if np.unique(tape.sum(axis=1)).size == n:
                distinct += 1
                assert np.max(np.abs(bench.marginals - marginals)) <= 1e-9, k
            else:
                tied += 1
        assert distinct >= 100 and tied >= 100

    def test_ties_go_to_the_lowest_rank(self):
        # rank totals R = [1, 2, 2] (items 2, 0, 1): the one- and two-slot
        # windows tie ranks 1 and 2 and pick rank 1
        tape = np.array([[2.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
        bench = best_fixed_hindsight(tape, [0.5, 0.3, 0.2], [2.0, 3.0, 1.0])
        ranking, matrix = hindsight_oracle(tape, [0.5, 0.3, 0.2], [2.0, 3.0, 1.0])
        assert ranking == (1, 0, 2)
        assert np.array_equal(matrix, [[0, 0, 0], [1, 1, 0], [0, 0, 1]])
        assert np.allclose(bench.marginals, [0.8, 0.2, 0.0])
        assert bench.value == pytest.approx(2.0)

    def test_dominant_item_takes_every_window(self):
        # one item clearly best: the optimum serves it at every window length
        tape = np.array([[0.1] * 20, [0.9] * 20, [0.2] * 20])
        utilities = [1.0, 3.0, 2.0]  # item 1 also has the top utility
        bench = best_fixed_hindsight(tape, [0.5, 0.3, 0.2], utilities)
        assert np.allclose(bench.marginals, [0.0, 1.0, 0.0], atol=1e-9)
        assert bench.value == pytest.approx(0.9 * 20)

    def test_zero_tape(self):
        bench = best_fixed_hindsight(np.zeros((2, 5)), [0.6, 0.4], [1.0, 2.0])
        assert bench.value == pytest.approx(0.0)

    def test_hindsight_regret_identity(self):
        # final cumulative regret = best fixed value - total realized payoff
        tape = TapePayoffs.bernoulli([0.8, 0.3], horizon=50, seed=3)
        trace = RegretTrace(
            trials=np.arange(1, 51), windows=np.ones(50, dtype=np.int64),
            selected=np.zeros(50, dtype=np.int64),
            payoffs=tape.values[0].copy(), inst_regret=np.zeros(50),
            cum_regret=np.zeros(50))
        q = [0.6, 0.4]
        utilities = [2.0, 1.0]
        redone = hindsight_regret(trace, tape, q, utilities)
        bench = best_fixed_hindsight(tape.values, q, utilities)
        assert redone.cum_regret[-1] == pytest.approx(
            bench.value - trace.payoffs.sum())


class TestRunReplication:
    def test_summary_and_trace_agree(self):
        cfg = ExperimentConfig.from_dict(base_config())
        summary, trace = run_replication(cfg, 0)
        assert summary["replication"] == 0
        assert summary["final_regret"] == pytest.approx(trace.cum_regret[-1])
        assert summary["total_payoff"] == pytest.approx(trace.payoffs.sum())
        assert summary["burn_in_trials"] == 0
        assert len(trace) == 200

    def test_deterministic(self):
        cfg = ExperimentConfig.from_dict(base_config())
        a = run_replication(cfg, 1)
        b = run_replication(cfg, 1)
        assert a[0] == b[0]
        assert np.array_equal(a[1].payoffs, b[1].payoffs)
        assert np.array_equal(a[1].cum_regret, b[1].cum_regret)

    def test_replications_differ(self):
        cfg = ExperimentConfig.from_dict(base_config())
        a = run_replication(cfg, 0)
        b = run_replication(cfg, 1)
        assert not np.array_equal(a[1].payoffs, b[1].payoffs)

    def test_explore_constant_changes_the_trace(self):
        def selected(**policy):
            cfg = ExperimentConfig.from_dict(base_config(policy={"name": "eps-greedy", **policy}))
            return run_replication(cfg, 0)[1].selected

        rare, often = selected(explore_constant=0.01), selected(explore_constant=50)
        assert not np.array_equal(rare, often)
        # the default constant is 1 and scales the anytime rate exactly
        assert np.array_equal(selected(), selected(explore_constant=1.0))

    def test_hindsight_over_the_trials_played(self, tmp_path):
        path = tmp_path / "tape.npy"
        np.save(path, np.random.default_rng(7).random((5, 100)))
        summary, trace = run_replication(ExperimentConfig.from_dict(tape_config(path)), 0)
        assert len(trace) == 50
        assert summary["hindsight_value"] - summary["total_payoff"] == pytest.approx(
            summary["final_regret"], abs=1e-9)
        utilities = [1.0, 2.0, 3.0, 4.0, 5.0]
        q = [0.3, 0.25, 0.2, 0.15, 0.1]
        assert summary["hindsight_value"] == best_fixed_hindsight(
            np.load(path)[:, :50], q, utilities).value
        redone = hindsight_regret(trace, TapePayoffs(np.load(path)), q, utilities)
        assert np.array_equal(redone.cum_regret, trace.cum_regret)

    def test_tape_policy_gets_hindsight_columns(self):
        raw = base_config(policy={"name": "osmd"},
                          payoffs={"type": "bernoulli", "rates": [0.2, 0.8, 0.5]},
                          horizon=150)
        summary, trace = run_replication(ExperimentConfig.from_dict(raw), 0)
        assert "hindsight_value" in summary
        assert summary["final_regret"] == pytest.approx(trace.cum_regret[-1])

    def test_hindsight_solved_once_per_tape_replication(self, monkeypatch):
        import rankbandit.harness as harness

        raw = base_config(policy={"name": "osmd"},
                          payoffs={"type": "bernoulli", "rates": [0.2, 0.8, 0.5]},
                          horizon=150)
        cfg = ExperimentConfig.from_dict(raw)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return best_fixed_hindsight(*args, **kwargs)

        monkeypatch.setattr(harness, "best_fixed_hindsight", counted)
        summary, trace = run_replication(cfg, 0)
        assert len(calls) == 1
        monkeypatch.undo()

        # the two-call path: hindsight_regret for the columns, a second solve
        # for the value
        q = np.asarray(raw["window"]["q"])
        utilities = raw["instance"]["utilities"]
        tape = TapePayoffs.bernoulli(raw["payoffs"]["rates"], 150, cfg.seed, 0)
        expected = hindsight_regret(trace, tape, q, utilities)
        assert summary["hindsight_value"] == best_fixed_hindsight(
            tape.values, q, utilities).value
        assert summary["final_regret"] == float(expected.cum_regret[-1])
        for name in ("selected", "windows", "payoffs", "inst_regret", "cum_regret"):
            assert np.array_equal(getattr(trace, name), getattr(expected, name)), name

    def test_sort_burn_in(self):
        raw = base_config(estimate="sort", horizon=400)
        summary, trace = run_replication(ExperimentConfig.from_dict(raw), 0)
        assert summary["burn_in_trials"] > 0
        assert len(trace) == 400
        assert np.all(trace.inst_regret >= 0.0)
        assert np.all(np.diff(trace.cum_regret) >= 0.0)

    def test_social_burn_in_pads_rows(self):
        raw = base_config(estimate="social", estimate_budget=3000, horizon=4000)
        raw["instance"] = {"utilities": [1.0, 5.0, 9.0], "means": [1.0, 3.0, 2.0]}
        summary, trace = run_replication(ExperimentConfig.from_dict(raw), 0)
        burn = summary["burn_in_trials"]
        assert burn > 0
        assert np.all(trace.windows[:burn] == 0)
        assert np.all(trace.selected[:burn] == -1)
        assert np.all(trace.inst_regret[:burn] == 0.0)
        assert len(trace) == 4000

    def test_tape_burn_in_is_not_scored_against_means(self):
        # means that do not generate the payoffs: a Bernoulli tape on schedule
        # windows has no benchmark, burn-in rows included
        raw = base_config(payoffs={"type": "bernoulli", "rates": [0.2, 0.8, 0.5]},
                          window={"type": "schedule", "schedule": [1, 2, 3] * 70},
                          estimate="sort")
        summary, trace = run_replication(ExperimentConfig.from_dict(raw), 0)
        assert summary["burn_in_trials"] > 0
        assert "hindsight_value" not in summary
        assert summary["final_regret"] == 0.0
        assert np.all(trace.inst_regret == 0.0)

    def test_users_pick_by_true_utilities_after_a_wrong_estimate(self, monkeypatch):
        import rankbandit.harness as harness
        from rankbandit.extensions import SocialLearningReport

        def swapped(utilities, windows, *, rng, budget):
            # ranks items 1 and 2 the wrong way round
            means = np.array([1.0, 9.0, 5.0])
            return SocialLearningReport(
                separated=True, counts=np.full(3, 4), means=means, trials=12)

        monkeypatch.setattr(harness, "estimate_social_learning", swapped)
        raw = base_config(estimate="social", horizon=400)
        raw["instance"] = {"utilities": [1.0, 5.0, 9.0], "means": [1.0, 3.0, 2.0]}
        summary, trace = run_replication(ExperimentConfig.from_dict(raw), 0)
        assert summary["burn_in_trials"] == 12
        full_view = trace.windows == 3
        assert full_view.sum() > 50
        assert np.all(trace.selected[full_view] == 2)
        # scored against the true utilities' family, which is optimal at every window
        assert np.all(trace.inst_regret >= 0.0)

    def test_tied_means_fail_before_the_burn_in(self, monkeypatch):
        import rankbandit.harness as harness

        def no_burn_in(*args):
            raise AssertionError("burn-in started")

        monkeypatch.setattr(harness, "estimate_order_sorting", no_burn_in)
        raw = base_config(estimate="sort")
        raw["instance"]["means"] = [1.0, 2.0, 2.0]
        with pytest.raises(DegenerateInstanceError):
            run_replication(ExperimentConfig.from_dict(raw), 0)

    def test_burn_in_must_leave_main_phase(self):
        raw = base_config(
            estimate="sort", estimate_budget=1, horizon=1,
            window={"type": "schedule", "schedule": [2, 2]})
        raw["instance"] = {"utilities": [1.0, 2.0], "means": [1.0, 2.0]}
        with pytest.raises(RuntimeError, match="whole horizon"):
            run_replication(ExperimentConfig.from_dict(raw), 0)


class TestRunExperiment:
    def test_report_shape(self):
        report = run_experiment(ExperimentConfig.from_dict(base_config()))
        assert report.checkpoints == [10, 100, 200]
        assert len(report.per_replication) == 2
        assert len(report.mean_regret) == 3
        curves = np.array([r["checkpoint_regret"] for r in report.per_replication])
        assert report.mean_regret == pytest.approx(curves.mean(axis=0))
        assert report.se_regret == pytest.approx(
            curves.std(axis=0, ddof=1) / math.sqrt(2))

    def test_parallel_matches_serial(self, tmp_path):
        path = tmp_path / "tape.npy"
        np.save(path, np.random.default_rng(17).random((5, 80)))
        for raw in (base_config(), {**tape_config(path), "replications": 3}):
            cfg = ExperimentConfig.from_dict(raw)
            serial = run_experiment(cfg, workers=1)
            parallel = run_experiment(cfg, workers=2)
            assert serial.to_dict() == parallel.to_dict()
            assert len(serial.traces) == len(parallel.traces) == cfg.replications
            for a, b in zip(serial.traces, parallel.traces):
                for name in ("trials", "windows", "selected", "payoffs",
                             "inst_regret", "cum_regret"):
                    column = getattr(a, name)
                    assert column.dtype == getattr(b, name).dtype, name
                    assert column.tobytes() == getattr(b, name).tobytes(), name

    def test_import_leaves_process_pool_unloaded(self):
        # only a run with workers > 1 imports the pool and multiprocessing
        src = str(Path(rankbandit.__file__).parents[1])
        code = "import sys, rankbandit; print('concurrent.futures.process' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        assert proc.stdout.strip() == "False"

    def test_outputs_and_summarize(self, tmp_path):
        raw = base_config(output_dir=str(tmp_path / "out"), horizon=120)
        report = run_experiment(ExperimentConfig.from_dict(raw))
        out = tmp_path / "out"
        assert (out / "report.json").exists()
        assert (out / "summary.csv").exists()
        assert sorted(p.name for p in (out / "traces").glob("*.csv")) == \
            ["rep0000.csv", "rep0001.csv"]
        mean, se = summarize_traces(out / "traces", report.checkpoints)
        assert mean == pytest.approx(report.mean_regret)
        assert se == pytest.approx(report.se_regret)
        loaded = json.loads((out / "report.json").read_text())
        assert loaded["mean_regret"] == report.mean_regret

    def test_summarize_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            summarize_traces(tmp_path, [1])
