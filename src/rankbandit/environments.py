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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Instance, _family_from_arrays, probability_vector, user_select

STREAM_PAYOFF = 0
STREAM_WINDOW = 1
STREAM_POLICY = 2
STREAM_TAPE = 3
STREAM_DELAY = 4

_BLOCK = 1024


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


class GaussianPayoffs:
    """Unit-variance Gaussian payoffs, one independent substream per item.

    Draws are buffered per item, so the k-th draw for item ``i`` depends only
    on ``(seed, replication, i, k)``.
    """

    def __init__(self, means: Sequence[float], seed: int, replication: int = 0):
        self.means = np.asarray(means, dtype=float)
        n = self.means.size
        self._gens = [substream(seed, replication, STREAM_PAYOFF, i) for i in range(n)]
        self._buffers: list[np.ndarray] = [np.empty(0)] * n
        self._used = [0] * n

    def draw(self, item: int, t: int) -> float:
        buf = self._buffers[item]
        k = self._used[item]
        if k >= buf.size:
            buf = self._gens[item].normal(self.means[item], 1.0, size=_BLOCK)
            self._buffers[item] = buf
            self._used[item] = 0
            k = 0
        self._used[item] = k + 1
        return float(buf[k])


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
        return float(self.values[item, t - 1])

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


class MultinomialWindows:
    """I.i.d. window lengths with distribution ``q`` over ``1..n``.

    Draws are sequential: call once per trial, in trial order.
    """

    def __init__(self, q: Sequence[float], seed: int, replication: int = 0):
        self.q = probability_vector(q)
        self.n = int(self.q.size)
        self._rng = substream(seed, replication, STREAM_WINDOW)
        self._buffer = np.empty(0, dtype=np.int64)
        self._used = 0

    def draw(self, t: int) -> int:
        if self._used >= self._buffer.size:
            self._buffer = self._rng.choice(self.n, size=4096, p=self.q) + 1
            self._used = 0
        w = int(self._buffer[self._used])
        self._used += 1
        return w


class LowerBoundBlockWindows:
    """Deterministic block schedule: window ``i`` throughout the i-th of n blocks."""

    def __init__(self, n: int, horizon: int):
        if horizon % n != 0:
            raise ValueError("horizon must be divisible by n")
        self.n = n
        self.horizon = horizon

    def draw(self, t: int) -> int:
        if not 1 <= t <= self.horizon:
            raise ScheduleExhaustedError(f"trial {t} beyond horizon {self.horizon}")
        return (t - 1) * self.n // self.horizon + 1


class AdaptiveWindows:
    """Scripted window adversary: sees past (window, pick, payoff), never the ranking."""

    def __init__(self, fn: Callable[[int, list[tuple[int, int, float]]], int], n: int):
        self.fn = fn
        self.n = n
        self.history: list[tuple[int, int, float]] = []

    def draw(self, t: int) -> int:
        w = int(self.fn(t, self.history))
        if not 1 <= w <= self.n:
            raise ValueError(f"adaptive window {w} outside 1..{self.n}")
        return w

    def observe(self, w: int, item: int, payoff: float) -> None:
        self.history.append((w, item, payoff))


@dataclass
class RegretTrace:
    """Per-trial record of one episode."""

    trials: np.ndarray
    windows: np.ndarray
    selected: np.ndarray
    payoffs: np.ndarray
    inst_regret: np.ndarray
    cum_regret: np.ndarray
    orders: np.ndarray | None = None

    CSV_COLUMNS = ("t", "window", "selected", "payoff", "inst_regret", "cum_regret")

    def __len__(self) -> int:
        return int(self.trials.size)

    def regret_at(self, t: int) -> float:
        """Cumulative regret after trial ``t``."""
        return float(self.cum_regret[t - 1])

    def to_csv(self, path) -> None:
        # the bytes csv.writer gives: python ints, floats as their shortest
        # round-tripping repr(), no field quoted, "\r\n" after every row
        rows = map("{},{},{},{!r},{!r},{!r}\r\n".format,
                   self.trials.tolist(), self.windows.tolist(), self.selected.tolist(),
                   self.payoffs.tolist(), self.inst_regret.tolist(), self.cum_regret.tolist())
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.CSV_COLUMNS) + "\r\n" + "".join(rows))


def _family_table(instance: Instance, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """The optimal family's item by (distinct utility row, window), and each
    trial's row. Tied means raise here, so build the table before trial 1.
    """
    if instance.utility_sequence is None:
        distinct, rows = instance.utilities[None], np.zeros(horizon, dtype=np.intp)
    else:
        distinct, rows = np.unique(instance.utility_sequence[:horizon], axis=0,
                                   return_inverse=True)
    table = np.array([_family_from_arrays(u, instance.means).benchmark_by_window
                      for u in distinct], dtype=np.intp).reshape(-1, instance.n)
    return table, rows.reshape(-1)


def _means_regret(means, table, rows, windows, selected) -> np.ndarray:
    """Per-trial ``means[s] - means[y]``, ``s = table[rows, w - 1]`` the optimal
    family's item for the window; undisplayed rows (``w = 0``) score 0.
    """
    regret = means[table[rows, windows - 1]] - means[selected]
    regret[windows == 0] = 0.0
    return regret


def run_episode(policy, instance: Instance, payoffs, windows, horizon: int, *,
                benchmark: str = "means", record_orders: bool = True) -> RegretTrace:
    """Run one episode of the display/select/feed loop and record a trace.

    ``benchmark="means"`` scores each trial against the optimal family of the
    instance (requires mean payoffs); ``benchmark="none"`` records zero
    instantaneous regret (useful when the benchmark is computed afterwards,
    e.g. in hindsight for tape payoffs).
    """
    if benchmark not in ("means", "none"):
        raise ValueError(f"unknown benchmark mode {benchmark!r}")
    n = instance.n
    if benchmark == "means":
        if instance.means is None:
            raise ValueError("benchmark='means' requires instance means")
        table, rows = _family_table(instance, horizon)

    trials = np.arange(1, horizon + 1, dtype=np.int64)
    wcol = np.empty(horizon, dtype=np.int64)
    ycol = np.empty(horizon, dtype=np.int64)
    paycol = np.empty(horizon, dtype=float)
    orders = np.empty((horizon, n), dtype=np.int16) if record_orders else None

    observe = getattr(windows, "observe", None)
    fixed_utilities = instance.utility_sequence is None
    utilities = instance.utilities
    # policies see the array; the user model indexes a list fastest
    scanned = utilities.tolist()

    for k in range(horizon):
        t = k + 1
        if not fixed_utilities:
            utilities = scanned = instance.utilities_at(t)
        order = policy.act(t, utilities)
        w = windows.draw(t)
        y = user_select(order, scanned, w)
        payoff = payoffs.draw(y, t)
        policy.feed(t, y, payoff)
        if observe is not None:
            observe(w, y, payoff)
        wcol[k] = w
        ycol[k] = y
        paycol[k] = payoff
        if orders is not None:
            orders[k] = order

    regcol = (_means_regret(instance.means, table, rows, wcol, ycol)
              if benchmark == "means" else np.zeros(horizon))
    return RegretTrace(
        trials=trials, windows=wcol, selected=ycol, payoffs=paycol,
        inst_regret=regcol, cum_regret=np.cumsum(regcol), orders=orders,
    )
