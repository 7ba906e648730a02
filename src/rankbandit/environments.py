"""Simulation environments: payoff sources, window sources, and the episode loop.

All randomness flows through named substreams of a counter-based generator,
keyed by ``(seed, replication, stream, ...)``, so policies can be compared on
paired seeds: consuming more or fewer draws in one component never shifts the
randomness of another.

Payoff sources implement tape semantics: the k-th draw for an item is the
same number no matter at which trial it happens. Window sources never see the
displayed ranking.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import Instance, optimal_family, probability_vector, user_select

STREAM_PAYOFF = 0
STREAM_WINDOW = 1
STREAM_POLICY = 2
STREAM_TAPE = 3
STREAM_DELAY = 4

# the most values a random source draws from numpy at a time: the windows,
# Gaussian payoffs and delays here and in extensions.py, and the uniforms of
# the epsilon-greedy and mirror-descent rankers. A source's first block holds
# 32 values and each next one twice as many, up to BLOCK, so a stream read
# only a few dozen times draws no more than it needs. numpy gives the same
# stream whatever the block sizes, so this sets speed and memory only
BLOCK = 1024


class TapeExhaustedError(RuntimeError):
    pass


class ScheduleExhaustedError(RuntimeError):
    pass


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for a named stream under a root seed."""
    if seed < 0 or any(p < 0 for p in path):
        raise ValueError("seed and stream path must be non-negative")
    seq = np.random.SeedSequence([int(seed), *[int(p) for p in path]])
    return np.random.Generator(np.random.Philox(seq))


def _blocks(draw: Callable[[int], np.ndarray]) -> Iterator:
    """The values of ``draw(size)``, one at a time as Python numbers, calling
    it for the next block when one runs out. The sizes go 32, 64, ... up to
    ``BLOCK`` and stay there."""
    size = 32
    while True:
        yield from draw(size).tolist()
        size = min(2 * size, BLOCK)


class GaussianPayoffs:
    """Unit-variance Gaussian payoffs, one independent substream per item.

    Each item's draws come from its own substream in blocks that grow from
    32 values to ``BLOCK`` (:func:`_blocks`), the same numbers as one
    ``normal`` call per draw, so the k-th draw for item ``i`` depends only
    on ``(seed, replication, i, k)``.
    """

    def __init__(self, means: Sequence[float], seed: int, replication: int = 0):
        self.means = np.asarray(means, dtype=float)
        gens = [substream(seed, replication, STREAM_PAYOFF, i) for i in range(self.means.size)]
        self._streams = [_blocks(functools.partial(g.normal, mean, 1.0))
                         for g, mean in zip(gens, self.means.tolist())]

    def draw(self, item: int, t: int) -> float:
        return next(self._streams[item])


class TapePayoffs:
    """Payoffs read off a pre-generated ``(n, T)`` tape, one row per item."""

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("tape must be a 2-d (n, T) array")
        if not np.all(np.isfinite(values)):
            raise ValueError("tape entries must be finite")
        self.values = values
        self.n, self.horizon = values.shape

    def draw(self, item: int, t: int) -> float:
        if not 1 <= t <= self.horizon:
            raise TapeExhaustedError(f"trial {t} beyond tape horizon {self.horizon}")
        return self.values.item(item, t - 1)

    @classmethod
    def bernoulli(cls, rates: Sequence[float], horizon: int, seed: int,
                  replication: int = 0) -> "TapePayoffs":
        rates = np.asarray(rates, dtype=float)
        rng = substream(seed, replication, STREAM_TAPE)
        draws = rng.random((rates.size, horizon)) < rates[:, None]
        return cls(draws.astype(float))

    @classmethod
    def from_csv(cls, path) -> "TapePayoffs":
        """Load the long format ``t,item,payoff`` (t 1-based, item 0-based)."""
        rows: list[tuple[int, int, float]] = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if [h.strip() for h in header] != ["t", "item", "payoff"]:
                raise ValueError(f"unexpected tape header {header!r}")
            for rec in reader:
                if len(rec) != 3:
                    raise ValueError(f"tape row {rec!r} does not have 3 fields")
                rows.append((int(rec[0]), int(rec[1]), float(rec[2])))
        if not rows:
            raise ValueError("tape file has no rows")
        horizon = max(r[0] for r in rows)
        n_items = max(r[1] for r in rows) + 1
        values = np.full((n_items, horizon), np.nan)
        for t, item, payoff in rows:
            values[item, t - 1] = payoff
        if np.isnan(values).any():
            raise ValueError("tape file leaves some (t, item) cells unset")
        return cls(values)


class ScheduleWindows:
    """Window lengths read off a fixed schedule."""

    def __init__(self, schedule: Sequence[int], n: int):
        schedule = [int(w) for w in schedule]
        if any(not 1 <= w <= n for w in schedule):
            raise ValueError(f"schedule entries must lie in 1..{n}")
        self.schedule = schedule

    def draw(self, t: int) -> int:
        if not 1 <= t <= len(self.schedule):
            raise ScheduleExhaustedError(f"trial {t} beyond schedule length {len(self.schedule)}")
        return self.schedule[t - 1]

    @classmethod
    def blocks(cls, n: int, horizon: int) -> "ScheduleWindows":
        """Window ``i`` throughout the i-th of n equal blocks of the horizon."""
        if horizon % n != 0:
            raise ValueError("horizon must be divisible by n")
        return cls([(t - 1) * n // horizon + 1 for t in range(1, horizon + 1)], n)


class MultinomialWindows:
    """I.i.d. window lengths with distribution ``q`` over ``1..n``.

    Draws are sequential: call once per trial, in trial order. A block of
    windows inverts the CDF of ``q``, computed once, at uniforms drawn in
    blocks by :func:`_blocks`: what ``Generator.choice(n, size, p=q)`` does,
    so the windows are the same numbers as one ``choice`` call per trial.
    """

    def __init__(self, q: Sequence[float], seed: int, replication: int = 0):
        self.q = q = probability_vector(q)
        self.n = int(q.size)
        rng = substream(seed, replication, STREAM_WINDOW)
        cdf = q.cumsum()
        cdf /= cdf[-1]
        self._windows = _blocks(
            lambda size: cdf.searchsorted(rng.random(size), side="right") + 1)

    def draw(self, t: int) -> int:
        return next(self._windows)


@dataclass
class RegretTrace:
    """Per-trial record of one episode."""

    trials: np.ndarray
    windows: np.ndarray
    selected: np.ndarray
    payoffs: np.ndarray
    inst_regret: np.ndarray
    cum_regret: np.ndarray

    CSV_COLUMNS = ("t", "window", "selected", "payoff", "inst_regret", "cum_regret")

    def __len__(self) -> int:
        return int(self.trials.size)

    def regret_at(self, t: int) -> float:
        """Cumulative regret after trial ``t``, for ``t`` in ``1..len(self)``."""
        if not 1 <= t <= len(self):
            raise ValueError(f"trial {t} outside 1..{len(self)}, the trials of this trace")
        return float(self.cum_regret[t - 1])

    def to_csv(self, path) -> None:
        # the bytes csv.writer gives: python ints, floats as their shortest
        # round-tripping repr(), no field quoted, "\r\n" after every row
        rows = map("{},{},{},{!r},{!r},{!r}\r\n".format,
                   self.trials.tolist(), self.windows.tolist(), self.selected.tolist(),
                   self.payoffs.tolist(), self.inst_regret.tolist(), self.cum_regret.tolist())
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.CSV_COLUMNS) + "\r\n" + "".join(rows))


def _means_regret(means, benchmark, windows, selected) -> np.ndarray:
    """Per-trial ``means[s] - means[y]``, ``s = benchmark[w - 1]`` the optimal
    family's item for the window (``OptimalFamily.benchmark_by_window``);
    undisplayed trials (``w = 0``) score 0.
    """
    regret = means[np.array(benchmark)[windows - 1]] - means[selected]
    regret[windows == 0] = 0.0
    return regret


def run_episode(policy, instance: Instance, payoffs, windows, horizon: int, *,
                benchmark: str = "means") -> RegretTrace:
    """Run one episode of the display/select/feed loop on the instance's
    fixed utilities, the array every trial shows the policy, and record a trace.

    Each trial the policy acts, the windows draw, the user selects, the
    payoffs draw and the policy is fed. The window and payoff sources learn
    nothing from the policy: a window source is given the trial alone, a
    payoff source the trial and the picked item.

    ``benchmark="means"`` scores each trial against the optimal family of the
    instance (requires mean payoffs; tied means raise before trial 1);
    ``benchmark="none"`` records zero instantaneous regret (useful when the
    benchmark is computed afterwards, e.g. in hindsight for tape payoffs).
    """
    if benchmark not in ("means", "none"):
        raise ValueError(f"unknown benchmark mode {benchmark!r}")
    if benchmark == "means":
        if instance.means is None:
            raise ValueError("benchmark='means' requires instance means")
        best = optimal_family(instance).benchmark_by_window

    ws, ys, pays = [], [], []
    utilities = instance.utilities
    # policies see the array; the user model indexes a list fastest
    scanned = utilities.tolist()

    for t in range(1, horizon + 1):
        order = policy.act(t, utilities)
        w = windows.draw(t)
        y = user_select(order, scanned, w)
        payoff = payoffs.draw(y, t)
        policy.feed(t, y, payoff)
        ws.append(w)
        ys.append(y)
        pays.append(payoff)

    wcol = np.array(ws, dtype=np.int64)
    ycol = np.array(ys, dtype=np.int64)
    paycol = np.array(pays, dtype=np.float64)
    regcol = (_means_regret(instance.means, best, wcol, ycol)
              if benchmark == "means" else np.zeros(horizon))
    return RegretTrace(
        trials=np.arange(1, horizon + 1, dtype=np.int64), windows=wcol, selected=ycol,
        payoffs=paycol, inst_regret=regcol, cum_regret=np.cumsum(regcol),
    )
