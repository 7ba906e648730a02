"""Experiment harness: JSON configs, replication fan-out, reports, benchmarks.

A config fixes the instance, window model, payoff source, policy, optional
delay wrapper and optional utility-estimation burn-in. Replications differ
only through the replication index in the substream paths, so runs are
reproducible bit-for-bit and two configs can be compared on paired seeds.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .adversarial import BLORanker, EpsilonGreedyRanker, lazy_alpha
from .core import (
    Instance, Permutation, _frozen_array, optimal_family, probability_vector,
    regret_upper_bound, utility_ranks,
)
from .elimination import EliminationRanker
from .environments import (
    STREAM_DELAY, STREAM_POLICY, GaussianPayoffs, MultinomialWindows, RegretTrace,
    ScheduleWindows, TapePayoffs, _means_regret, run_episode, substream,
)
from .extensions import (
    DelayModel, GreedyUserEnv, PooledDelayPolicy, QueuedDelayPolicy,
    estimate_order_sorting, estimate_social_learning,
)

STREAM_ESTIMATE = 5

POLICY_NAMES = ("elim", "eps-greedy", "osmd")

# the fields a config may set, by section ("" is the top level)
CONFIG_FIELDS = {
    "": {"label", "instance", "window", "payoffs", "policy", "horizon", "replications",
         "seed", "delay", "estimate", "estimate_budget", "output_dir"},
    "instance": {"n", "utilities", "means"},
    "window": {"type", "q", "schedule"},
    "payoffs": {"type", "rates", "path"},
    "policy": {"name", "delta", "eta", "explore_constant", "delay_wrapper"},
}
# the fields only one type of their section reads, by section: the key that
# picks the type, and for each such field the type that reads it
TYPED_FIELDS = {
    "window": ("type", {"q": "multinomial", "schedule": "schedule"}),
    "payoffs": ("type", {"rates": "bernoulli", "path": "tape"}),
    "policy": ("name", {"eta": "osmd", "explore_constant": "eps-greedy"}),
}


class ConfigError(ValueError):
    """Invalid experiment config; the message names the offending field."""


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _number(value, path: str, kind: type = float):
    """``value`` as a finite ``kind`` (``int`` or ``float``); a ConfigError names ``path``.

    Booleans and strings are not numbers, and an ``int`` field rejects a
    fractional value instead of truncating it.
    """
    _require(isinstance(value, numbers.Real) and not isinstance(value, bool),
             path, f"must be a number, got {value!r}")
    _require(math.isfinite(value), path, f"must be finite, got {value!r}")
    _require(kind is float or value == int(value), path,
             f"must be an integer, got {value!r}")
    return kind(value)


def _require_read(section: str, fields: dict) -> None:
    """A ConfigError names a field of ``section`` that its chosen type never reads."""
    key, readers = TYPED_FIELDS[section]
    kind = fields.get(key)
    for name, reader in readers.items():
        _require(name not in fields or kind == reader, f"{section}.{name}",
                 f"only read when {section}.{key} is {reader!r}, got {kind!r}")


def _require_positive(value, path: str) -> None:
    _require(_number(value, path) > 0, path, f"must be > 0, got {value!r}")


def _load_tape(path, n: int, horizon: int) -> TapePayoffs:
    """Read a ``.npy`` or long-format CSV tape that covers n items for horizon trials."""
    try:
        if str(path).endswith(".npy"):
            tape = TapePayoffs(np.load(path))
        else:
            tape = TapePayoffs.from_csv(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"payoffs.path: {exc}") from None
    _require(tape.n == n, "payoffs.path", f"tape has {tape.n} rows, instance n is {n}")
    _require(tape.horizon >= horizon, "payoffs.path",
             f"tape has {tape.horizon} columns, horizon is {horizon}")
    return tape


@dataclass
class ExperimentConfig:
    instance: Instance
    window: dict
    payoffs: dict
    policy: dict
    horizon: int
    replications: int = 1
    seed: int = 0
    delay: str = "none"
    estimate: str | None = None
    estimate_budget: int | None = None
    output_dir: str | None = None
    label: str = "experiment"
    # the file tape of tape payoffs, read once here by from_dict; not in to_dict
    tape: TapePayoffs | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _require(isinstance(raw, dict), "config", "must be a JSON object")
        for key in ("instance", "window", "horizon"):
            _require(key in raw, key, "required field missing")
        for key in ("instance", "window", "payoffs", "policy"):
            _require(isinstance(raw.get(key, {}), dict), key,
                     f"must be a JSON object, got {raw.get(key)!r}")
        unknown = [f"{section}.{key}" if section else key
                   for section, known in CONFIG_FIELDS.items()
                   for key in (raw.get(section, {}) if section else raw)
                   if key not in known]
        _require(not unknown, ", ".join(unknown), "unknown field" + "s" * (len(unknown) > 1))
        if "n" in raw["instance"]:
            _number(raw["instance"]["n"], "instance.n", int)
        try:
            instance = Instance.from_dict(raw["instance"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        n = instance.n

        window = dict(raw["window"])
        wtype = window.get("type")
        _require(wtype in ("multinomial", "schedule", "blocks"),
                 "window.type", f"must be one of multinomial/schedule/blocks, got {wtype!r}")
        _require_read("window", window)
        horizon = _number(raw["horizon"], "horizon", int)
        _require(horizon >= 1, "horizon", "must be >= 1")
        if wtype == "multinomial":
            _require("q" in window, "window.q", "required for multinomial windows")
            try:
                q = probability_vector(window["q"], name="window.q")
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            _require(q.size == n, "window.q", f"length {q.size} != instance n {n}")
        elif wtype == "schedule":
            _require("schedule" in window, "window.schedule", "required for schedule windows")
            sched = window["schedule"]
            _require(isinstance(sched, (list, tuple)), "window.schedule",
                     f"must be a list, got {type(sched).__name__}")
            sched = [_number(w, f"window.schedule[{i}]", int) for i, w in enumerate(sched)]
            _require(all(1 <= w <= n for w in sched), "window.schedule",
                     f"entries must lie in 1..{n}")
            window["schedule"] = sched
            _require(len(sched) >= horizon, "window.schedule",
                     f"has {len(sched)} entries, horizon is {horizon}")

        payoffs = dict(raw.get("payoffs", {"type": "gaussian"}))
        ptype = payoffs.get("type")
        tape = None
        _require(ptype in ("gaussian", "bernoulli", "tape"),
                 "payoffs.type", f"must be one of gaussian/bernoulli/tape, got {ptype!r}")
        _require_read("payoffs", payoffs)
        if ptype == "gaussian":
            _require(instance.means is not None, "instance.means",
                     "required for gaussian payoffs")
        elif ptype == "bernoulli":
            rates = payoffs.get("rates")
            _require(isinstance(rates, (list, tuple)), "payoffs.rates",
                     f"must be a list, got {type(rates).__name__}")
            rates = [_number(r, f"payoffs.rates[{i}]") for i, r in enumerate(rates)]
            _require(len(rates) == n, "payoffs.rates", f"length {len(rates)} != instance n {n}")
            _require(all(0 <= r <= 1 for r in rates),
                     "payoffs.rates", "entries must lie in [0, 1]")
        else:
            _require("path" in payoffs, "payoffs.path", "required for tape payoffs")
            _require(isinstance(payoffs["path"], str), "payoffs.path",
                     f"must be a string, got {payoffs['path']!r}")
            tape = _load_tape(payoffs["path"], n, horizon)

        policy = dict(raw.get("policy", {"name": "elim"}))
        name = policy.get("name")
        _require(name in POLICY_NAMES, "policy.name",
                 f"must be one of {'/'.join(POLICY_NAMES)}, got {name!r}")
        _require_read("policy", policy)
        if name == "elim" or "delta" in policy:  # every policy's elimination bound reads it
            delta = _number(policy.get("delta", 0.01), "policy.delta")
            _require(0 < delta <= 1, "policy.delta", "must lie in (0, 1]")
            policy["delta"] = delta
        for key in ("eta", "explore_constant"):
            if policy.get(key) is not None:
                _require_positive(policy[key], f"policy.{key}")
        wrapper = policy.get("delay_wrapper", "qpmd")
        _require(wrapper in ("qpmd", "bold"), "policy.delay_wrapper",
                 f"must be qpmd or bold, got {wrapper!r}")
        if name in ("eps-greedy", "osmd"):
            _require(wtype == "multinomial", "window.type",
                     f"policy {name!r} requires multinomial windows with known q")
        if name == "eps-greedy":
            try:
                lazy_alpha(q)
            except ValueError as exc:
                raise ConfigError(f"window.q: {exc}") from None

        replications = _number(raw.get("replications", 1), "replications", int)
        _require(replications >= 1, "replications", "must be >= 1")
        seed = _number(raw.get("seed", 0), "seed", int)
        _require(seed >= 0, "seed", "must be >= 0")

        delay = str(raw.get("delay", "none"))
        try:
            DelayModel.parse(delay)
        except ValueError as exc:
            raise ConfigError(f"delay: {exc}") from None

        estimate = raw.get("estimate")
        _require(estimate in (None, "sort", "social"), "estimate",
                 f"must be null, 'sort' or 'social', got {estimate!r}")
        estimate_budget = raw.get("estimate_budget")
        if estimate_budget is not None:
            estimate_budget = _number(estimate_budget, "estimate_budget", int)
            _require(estimate_budget >= 1, "estimate_budget", "must be >= 1")

        if wtype == "blocks":
            _require(horizon % n == 0, "horizon",
                     "must be divisible by n for block windows")
        output_dir = raw.get("output_dir")
        _require(output_dir is None or isinstance(output_dir, str), "output_dir",
                 f"must be a string or null, got {output_dir!r}")

        cfg = cls(
            instance=instance, window=window, payoffs=payoffs, policy=policy,
            horizon=horizon, replications=replications, seed=seed, delay=delay,
            estimate=estimate, estimate_budget=estimate_budget,
            output_dir=output_dir, label=str(raw.get("label", "experiment")),
        )
        cfg.tape = tape
        return cfg

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "instance": self.instance.to_dict(),
            "window": self.window,
            "payoffs": self.payoffs,
            "policy": self.policy,
            "horizon": self.horizon,
            "replications": self.replications,
            "seed": self.seed,
            "delay": self.delay,
            "estimate": self.estimate,
            "estimate_budget": self.estimate_budget,
            "output_dir": self.output_dir,
        }


class _OffsetWindows:
    """Shift the trial index seen by a window source (burn-in consumed a prefix)."""

    def __init__(self, inner, offset: int):
        self.inner = inner
        self.offset = offset

    def draw(self, t: int) -> int:
        return self.inner.draw(t + self.offset)


class _OffsetPayoffs:
    def __init__(self, inner, offset: int):
        self.inner = inner
        self.offset = offset

    def draw(self, item: int, t: int) -> float:
        return self.inner.draw(item, t + self.offset)


class _EstimatedUtilities:
    """Show a policy the burn-in's estimated utilities; users keep the true ones.

    The estimate is frozen, so a ranker shown the same array every trial
    need not compare it with the last one.
    """

    def __init__(self, inner, utilities: np.ndarray):
        self.inner = inner
        self.utilities = _frozen_array(utilities)
        self.feed = inner.feed

    def act(self, t: int, utilities) -> Permutation:
        return self.inner.act(t, self.utilities)


def _build_windows(cfg: ExperimentConfig, rep: int):
    wtype = cfg.window["type"]
    n = cfg.instance.n
    if wtype == "multinomial":
        return MultinomialWindows(np.asarray(cfg.window["q"], dtype=float),
                                  cfg.seed, rep)
    if wtype == "schedule":
        return ScheduleWindows(cfg.window["schedule"], n)
    return ScheduleWindows.blocks(n, cfg.horizon)


def _build_payoffs(cfg: ExperimentConfig, rep: int):
    ptype = cfg.payoffs["type"]
    if ptype == "gaussian":
        return GaussianPayoffs(cfg.instance.means, cfg.seed, rep)
    if ptype == "bernoulli":
        return TapePayoffs.bernoulli(np.asarray(cfg.payoffs["rates"], dtype=float),
                                     cfg.horizon, cfg.seed, rep)
    return cfg.tape


def _build_base_policy(cfg: ExperimentConfig, rep: int, instance_idx: int = 0):
    name = cfg.policy["name"]
    n = cfg.instance.n
    if name == "elim":
        return EliminationRanker(n, cfg.policy.get("delta", 0.01))
    rng = substream(cfg.seed, rep, STREAM_POLICY, instance_idx)
    q = np.asarray(cfg.window["q"], dtype=float)
    if name == "eps-greedy":
        return EpsilonGreedyRanker(
            q, rng=rng, explore_constant=float(cfg.policy.get("explore_constant", 1.0)))
    eta = cfg.policy.get("eta")
    return BLORanker(q, horizon=cfg.horizon, eta=None if eta is None else float(eta),
                     rng=rng)


def _build_policy(cfg: ExperimentConfig, rep: int):
    delay = DelayModel.parse(cfg.delay)
    if delay.kind == "none":
        return _build_base_policy(cfg, rep)
    rng = substream(cfg.seed, rep, STREAM_DELAY)
    if cfg.policy.get("delay_wrapper", "qpmd") == "bold":
        return PooledDelayPolicy(lambda idx: _build_base_policy(cfg, rep, idx), delay, rng)
    return QueuedDelayPolicy(_build_base_policy(cfg, rep), delay, rng)


def default_sort_budget(n: int, horizon: int) -> int:
    """Display budget for order estimation: ~4 n^2 log2(n) log(T)."""
    return int(math.ceil(4.0 * n * n * max(1.0, math.log2(n)) *
                         math.log(max(horizon, 2))))


@dataclass(frozen=True)
class HindsightBenchmark:
    """The best fixed ranking's tape payoff and its selection marginals."""

    marginals: np.ndarray  # by item
    value: float


def best_fixed_hindsight(tape_values: np.ndarray, q, utilities) -> HindsightBenchmark:
    """Maximize total tape payoff over achievable fixed selection marginals.

    With ``R[a]`` the tape total of the item of utility rank ``a``, the best
    value is ``sum_c q[c] * max_{a >= c} R[a]``. A window of ``c + 1`` slots
    shows ``c + 1`` distinct ranks, so its selection has rank at least ``c``:
    every admissible column ``c`` lives on ranks ``>= c`` and earns at most
    that suffix maximum. Column ``c`` picks ``picks[c]``, the lowest rank
    attaining it (ties go to the lowest rank). A suffix argmax never
    decreases in ``c`` and ``picks[c] >= c``, so the picks are the prefix
    maxima of one ranking; its 0/1 selection matrix is admissible and meets
    the bound, which makes it optimal over the whole polytope.
    """
    tape_values = np.asarray(tape_values, dtype=float)
    q = np.asarray(q, dtype=float)
    n = q.size
    totals = tape_values.sum(axis=1)
    ranks = utility_ranks(utilities)
    rank_totals = np.zeros(n)
    rank_totals[ranks] = totals

    picks = [0] * n
    best = n - 1
    for c in range(n - 1, -1, -1):
        if rank_totals[c] >= rank_totals[best]:
            best = c
        picks[c] = best
    # P @ q and no scatter of q: the pinned regret columns hold its rounding
    P = np.zeros((n, n))
    P[picks, np.arange(n)] = 1.0
    marginals = (P @ q)[ranks]
    return HindsightBenchmark(marginals=marginals, value=float(totals @ marginals))


def _burn_in(cfg: ExperimentConfig, rep: int, windows, payoffs):
    """Run a utility-order estimation phase and return its ``(windows, selected,
    payoffs)`` columns and pseudo-utilities (ranks ``1..n`` in the estimated order).
    A social trial displays nothing and earns nothing: ``w = 0``, ``y = -1``, payoff 0.
    """
    instance = cfg.instance
    n = instance.n
    budget = cfg.estimate_budget
    if budget is None:
        budget = min(cfg.horizon, default_sort_budget(n, cfg.horizon))

    if cfg.estimate == "sort":
        env = GreedyUserEnv(instance.utilities, windows)
        ascending = estimate_order_sorting(env.show, n, budget).order
        w0 = np.array([w for w, _ in env.history], dtype=np.int64)
        y0 = np.array([y for _, y in env.history], dtype=np.int64)
        pay0 = np.array([payoffs.draw(y, t) for t, y in enumerate(y0.tolist(), 1)])
    else:
        rng = substream(cfg.seed, rep, STREAM_ESTIMATE)
        report = estimate_social_learning(
            instance.utilities, windows, rng=rng, budget=budget)
        if not report.separated:
            raise RuntimeError(
                f"social-learning burn-in did not separate within {budget} trials")
        ascending = report.order_by_mean()
        w0 = np.zeros(report.trials, dtype=np.int64)
        y0 = np.full(report.trials, -1, dtype=np.int64)
        pay0 = np.zeros(report.trials)

    pseudo = np.empty(n)
    pseudo[list(ascending)] = np.arange(1, n + 1, dtype=float)
    return (w0, y0, pay0), pseudo


def run_replication(cfg: ExperimentConfig, rep: int) -> tuple[dict, RegretTrace]:
    """Run one replication and score its whole trace, burn-in included, by one rule:
    a tape with multinomial windows against the best fixed ranking in hindsight,
    Gaussian payoffs against the optimal family of the means, anything else as 0.

    An exception raised on the way keeps its type, and its message names the
    config's label, the seed and the replication, in a worker process too.
    """
    try:
        return _replication(cfg, rep)
    except Exception as exc:
        exc.args = (f"{cfg.label}: seed {cfg.seed}, replication {rep}: {exc}",)
        raise


def _replication(cfg: ExperimentConfig, rep: int) -> tuple[dict, RegretTrace]:
    instance = cfg.instance
    windows = _build_windows(cfg, rep)
    payoffs = _build_payoffs(cfg, rep)
    tape = payoffs.values if isinstance(payoffs, TapePayoffs) else None
    # tied means fail here, before any trial
    best = (optimal_family(instance).benchmark_by_window
            if cfg.payoffs["type"] == "gaussian" else None)

    policy = _build_policy(cfg, rep)
    burn = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))
    if cfg.estimate is not None:
        burn, pseudo_utilities = _burn_in(cfg, rep, windows, payoffs)
        windows = _OffsetWindows(windows, len(burn[0]))
        payoffs = _OffsetPayoffs(payoffs, len(burn[0]))
        policy = _EstimatedUtilities(policy, pseudo_utilities)
    burn_used = len(burn[0])
    main_horizon = cfg.horizon - burn_used
    if main_horizon <= 0:
        raise RuntimeError("estimation burn-in consumed the whole horizon")

    main = run_episode(policy, instance, payoffs, windows, main_horizon, benchmark="none")
    w, y, pay = (np.concatenate([b, m]) for b, m in
                 zip(burn, (main.windows, main.selected, main.payoffs)))

    summary = {
        "replication": rep,
        "total_payoff": float(pay.sum()),
        "burn_in_trials": burn_used,
    }
    if tape is not None and cfg.window["type"] == "multinomial":
        played = tape[:, :cfg.horizon]
        bench = best_fixed_hindsight(played, np.asarray(cfg.window["q"], dtype=float),
                                     instance.utilities)
        inst = bench.marginals @ played - pay
        summary["hindsight_value"] = float(bench.value)
    elif best is not None:
        inst = _means_regret(instance.means, best, w, y)
    else:
        inst = np.zeros(cfg.horizon)
    trace = RegretTrace(
        trials=np.arange(1, cfg.horizon + 1, dtype=np.int64), windows=w, selected=y,
        payoffs=pay, inst_regret=inst, cum_regret=np.cumsum(inst),
    )
    summary["final_regret"] = float(trace.cum_regret[-1])
    return summary, trace


def _checkpoints(horizon: int) -> list[int]:
    grid = {horizon}
    t = 10
    while t < horizon:
        grid.add(t)
        t *= 10
    return sorted(grid)


@dataclass
class ExperimentReport:
    config: dict
    checkpoints: list[int]
    per_replication: list[dict]
    mean_regret: list[float]
    se_regret: list[float]
    bounds: dict
    traces: list[RegretTrace] = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "checkpoints": self.checkpoints,
            "per_replication": self.per_replication,
            "mean_regret": self.mean_regret,
            "se_regret": self.se_regret,
            "bounds": self.bounds,
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _bound_values(cfg: ExperimentConfig) -> dict:
    """Regret bounds for the config; ``None`` where a bound is not stated.

    The elimination bound assumes every selection is fed back before the next
    trial. A delay wrapper replays the base trajectory exactly only at zero
    delay, so a positive ``tau_max`` drops it.
    """
    bounds: dict[str, float | None] = {"elimination": None, "mirror_descent": None}
    name = cfg.policy["name"]
    if cfg.instance.means is not None and DelayModel.parse(cfg.delay).tau_max == 0:
        try:
            bounds["elimination"] = regret_upper_bound(
                cfg.instance, cfg.horizon, cfg.policy.get("delta", 0.01))
        except ValueError:
            bounds["elimination"] = None
    bounds["mirror_descent"] = 2.0 * math.sqrt(2.0 * cfg.horizon * cfg.instance.n)
    bounds["active"] = ("elimination" if name == "elim" else
                        "mirror_descent" if name == "osmd" else None)
    return bounds


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    reps = range(cfg.replications)
    results: dict[int, tuple[dict, RegretTrace]] = {}
    if workers > 1 and cfg.replications > 1:
        # imported here so that a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        # no more processes than replications: a forking pool starts them all
        with ProcessPoolExecutor(max_workers=min(workers, cfg.replications)) as pool:
            results = dict(zip(reps, pool.map(run_replication, [cfg] * cfg.replications,
                                               reps)))
    else:
        for rep in reps:
            results[rep] = run_replication(cfg, rep)

    checkpoints = _checkpoints(cfg.horizon)
    per_rep = []
    curves = np.empty((cfg.replications, len(checkpoints)))
    traces = []
    for rep in sorted(results):
        summary, trace = results[rep]
        summary = dict(summary)
        summary["checkpoint_regret"] = [float(trace.cum_regret[t - 1]) for t in checkpoints]
        curves[rep] = summary["checkpoint_regret"]
        per_rep.append(summary)
        traces.append(trace)

    mean = curves.mean(axis=0)
    if cfg.replications > 1:
        se = curves.std(axis=0, ddof=1) / math.sqrt(cfg.replications)
    else:
        se = np.zeros(len(checkpoints))

    report = ExperimentReport(
        config=cfg.to_dict(), checkpoints=checkpoints, per_replication=per_rep,
        mean_regret=[float(x) for x in mean], se_regret=[float(x) for x in se],
        bounds=_bound_values(cfg), traces=traces,
    )
    if cfg.output_dir:
        write_outputs(report, cfg.output_dir)
    return report


def write_outputs(report: ExperimentReport, output_dir) -> None:
    out = Path(output_dir)
    (out / "traces").mkdir(parents=True, exist_ok=True)
    report.to_json(out / "report.json")
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replication", "final_regret", "total_payoff"]
                        + [f"regret_at_{t}" for t in report.checkpoints])
        for row in report.per_replication:
            writer.writerow([row["replication"], repr(row["final_regret"]),
                             repr(row["total_payoff"])]
                            + [repr(v) for v in row["checkpoint_regret"]])
    for rep, trace in enumerate(report.traces):
        trace.to_csv(out / "traces" / f"rep{rep:04d}.csv")

