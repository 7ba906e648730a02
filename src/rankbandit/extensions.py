"""Extensions: delayed feedback wrappers and utility-order estimation.

The two wrappers adapt any act/feed policy to payoffs that arrive ``tau``
trials late. The queued wrapper runs a single base policy and stalls its
clock while replaying the last ranking until the payoff for the item that
ranking elicited comes back; the pooled wrapper runs several independent
base instances round-robin, handing each trial to a free instance and
routing every payoff back to the instance that generated it.

A payoff generated at trial ``t`` with delay ``tau`` becomes visible at the
end of trial ``t + tau``; with zero delay both wrappers replay the base
policy's trajectory exactly.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import Permutation, user_select

# social-learning burn-in: review interval half-width at one review, review
# noise, and the half-width of the interval before any review
REVIEW_HALFWIDTH = 3.0
REVIEW_NOISE_SD = 1.0
PRIOR_HALFWIDTH = 10.0
# uniform delays drawn from a wrapper's generator at a time
DELAY_BLOCK = 1024


@dataclass(frozen=True)
class DelayModel:
    kind: str = "none"  # "none" | "fixed" | "uniform"
    tau_max: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "fixed", "uniform"):
            raise ValueError(f"unknown delay kind {self.kind!r}")
        if self.tau_max < 0:
            raise ValueError("tau_max must be >= 0")
        if self.kind == "none" and self.tau_max != 0:
            raise ValueError("delay 'none' implies tau_max == 0")

    def delays(self, rng: np.random.Generator | None) -> Iterator[int]:
        """The delay of each payoff in turn.

        ``uniform`` delays are drawn from ``rng`` ``DELAY_BLOCK`` at a time,
        which gives the same numbers as one ``rng.integers(0, tau_max + 1)``
        per payoff; ``none`` and ``fixed`` take nothing from ``rng``.
        """
        if self.kind != "uniform":
            return itertools.repeat(self.tau_max)
        return _uniform_delays(rng, self.tau_max + 1)

    @classmethod
    def parse(cls, spec: str) -> "DelayModel":
        """Parse ``none``, ``fixed:k`` or ``uniform:0..k``."""
        spec = spec.strip()
        if spec == "none":
            return cls()
        kind, _, arg = spec.partition(":")
        try:
            bounds = [int(bound) for bound in arg.split("..")]
        except ValueError:
            bounds = []
        if kind == "fixed" and len(bounds) == 1:
            return cls(kind="fixed", tau_max=bounds[0])
        if kind == "uniform" and len(bounds) == 2:
            if bounds[0] != 0:
                raise ValueError("uniform delay must start at 0")
            return cls(kind="uniform", tau_max=bounds[1])
        raise ValueError(f"cannot parse delay spec {spec!r}")


def _uniform_delays(rng: np.random.Generator, high: int) -> Iterator[int]:
    while True:
        yield from rng.integers(0, high, DELAY_BLOCK).tolist()


class QueuedDelayPolicy:
    """Queue-per-item adaptation of a single base policy to delayed payoffs.

    The base policy advances one step at a time: it proposes a ranking, the
    first user pick under that ranking becomes the base's request, and the
    wrapper keeps displaying the same ranking until the requested item's
    queue is non-empty. Every observed payoff is enqueued under its item on
    arrival, so off-request picks are banked rather than lost. Delays come
    from :meth:`DelayModel.delays`: ``uniform`` ones are drawn from ``rng``
    in blocks of ``DELAY_BLOCK``, the same numbers as one draw per payoff.

    No inversion budget is stated for delayed feedback:
    :func:`~rankbandit.elimination.inversion_budget` holds only when every
    selection is fed back before the next trial, and no budget is derived or
    tested for a ranker behind this wrapper.
    """

    def __init__(self, base, delay: DelayModel, rng: np.random.Generator | None = None):
        self.base = base
        self._delays = delay.delays(rng)
        self.queues: dict[int, deque] = {}
        self._inflight: list[tuple[int, int, int, float]] = []
        self.pending: int | None = None
        self._request_open = False
        self.base_clock = 1
        self._order: Permutation | None = None
        self.enqueued = 0
        self.dequeued = 0

    def _deliver(self, before: int) -> None:
        while self._inflight and self._inflight[0][0] < before:
            _, _, item, payoff = heapq.heappop(self._inflight)
            self.queues.setdefault(item, deque()).append(payoff)
            self.enqueued += 1

    def _serve_pending(self) -> None:
        if self.pending is not None:
            queue = self.queues.get(self.pending)
            if queue:
                payoff = queue.popleft()
                self.dequeued += 1
                self.base.feed(self.base_clock, self.pending, payoff)
                self.base_clock += 1
                self.pending = None

    def act(self, t: int, utilities) -> Permutation:
        self._deliver(t)
        self._serve_pending()
        if self.pending is None and not self._request_open:
            self._order = self.base.act(self.base_clock, utilities)
            self._request_open = True
        return self._order

    def feed(self, t: int, item: int, payoff: float) -> None:
        tau = next(self._delays)
        heapq.heappush(self._inflight, (t + tau, t, item, payoff))
        if self._request_open:
            self.pending = item
            self._request_open = False

    @property
    def backlog(self) -> int:
        return sum(len(q) for q in self.queues.values()) + len(self._inflight)


def qpmd_wrap(base, delay: DelayModel, rng: np.random.Generator | None = None):
    return QueuedDelayPolicy(base, delay, rng)


class PooledDelayPolicy:
    """Round-robin pool of independent base instances for delayed payoffs.

    Each trial goes to the lowest-index instance not waiting on feedback,
    spawning a new instance when all are busy; the payoff is routed back to
    the instance that proposed the ranking. With delays bounded by
    ``tau_max`` the pool never exceeds ``tau_max + 1`` instances. Delays are
    drawn as in :class:`QueuedDelayPolicy`, in blocks from ``rng``.

    No inversion budget is stated for delayed feedback:
    :func:`~rankbandit.elimination.inversion_budget` holds only when every
    selection is fed back before the next trial, and no budget is derived or
    tested for a ranker behind this wrapper.
    """

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
            _, _, inst_id, item, payoff = heapq.heappop(self._inflight)
            self.instances[inst_id].feed(self._acts_done[inst_id], item, payoff)
            self._busy[inst_id] = False

    def act(self, t: int, utilities) -> Permutation:
        self._deliver(t)
        free = next((i for i, busy in enumerate(self._busy) if not busy), None)
        if free is None:
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
        tau = next(self._delays)
        heapq.heappush(self._inflight, (t + tau, t, self._active, item, payoff))

    @property
    def pool_size(self) -> int:
        return len(self.instances)


def bold_wrap(base_factory: Callable[[int], object], delay: DelayModel,
              rng: np.random.Generator | None = None):
    return PooledDelayPolicy(base_factory, delay, rng)


class PartialOrderError(RuntimeError):
    """The display budget ran out before the order was fully resolved."""


class GreedyUserEnv:
    """Interactive display endpoint backed by greedy limited-attention users.

    ``history`` holds one ``(window, pick)`` pair per display.
    """

    def __init__(self, utilities: Sequence[float], windows):
        # user_select reads one item at a time
        self._scan = np.asarray(utilities, dtype=float).tolist()
        self.windows = windows
        self.trials = 0
        self.history: list[tuple[int, int]] = []

    def show(self, order: Sequence[int]) -> int:
        self.trials += 1
        w = self.windows.draw(self.trials)
        y = int(user_select(order, self._scan, w))
        self.history.append((w, y))
        return y


@dataclass(frozen=True)
class SortResult:
    order: Permutation  # ascending utility
    comparisons: int
    trials: int


def estimate_order_sorting(show: Callable[[Sequence[int]], int], n: int,
                           budget: int) -> SortResult:
    """Recover the exact utility order of ``n`` items through displayed rankings.

    A single pairwise comparison displays the two candidates in the top two
    slots (remaining items behind, in index order). Only a pick of the
    second slot is conclusive: it proves the second item beats the first,
    whatever the user's window was. A top-slot pick proves nothing (the
    window may have been 1), so the two arrangements alternate until one
    conclusive pick lands. A merge sort over this comparison drives the
    total display count to ``O(n^2 log n)`` in expectation under any window
    distribution with mass beyond the first position.
    """
    trials = 0
    comparisons = 0

    def beats(a: int, b: int) -> int:
        """Return whichever of a, b has the higher utility."""
        nonlocal trials, comparisons
        comparisons += 1
        rest = [c for c in range(n) if c != a and c != b]
        pair = (a, b)
        while True:
            if trials >= budget:
                raise PartialOrderError(
                    f"budget {budget} exhausted after {comparisons} comparisons")
            trials += 1
            y = show((*pair, *rest))
            if y == pair[1]:
                return pair[1]
            pair = (pair[1], pair[0])

    def merge_sort(items: list[int]) -> list[int]:
        if len(items) <= 1:
            return items
        mid = len(items) // 2
        left = merge_sort(items[:mid])
        right = merge_sort(items[mid:])
        out: list[int] = []
        i = j = 0
        while i < len(left) and j < len(right):
            # ascending utility: put the loser of the pairwise duel first
            if beats(left[i], right[j]) == left[i]:
                out.append(right[j])
                j += 1
            else:
                out.append(left[i])
                i += 1
        out.extend(left[i:])
        out.extend(right[j:])
        return out

    order = merge_sort(list(range(n)))
    return SortResult(order=tuple(order), comparisons=comparisons, trials=trials)


@dataclass
class SocialLearningReport:
    separated: bool
    counts: np.ndarray
    means: np.ndarray
    trials: int

    def order_by_mean(self) -> Permutation:
        if not self.separated:
            raise PartialOrderError("intervals still overlap; no total order")
        return tuple(int(i) for i in np.argsort(self.means))


def estimate_social_learning(utilities: Sequence[float], windows, *,
                             rng: np.random.Generator,
                             budget: int) -> SocialLearningReport:
    """Separate noisy utility estimates by repeatedly topping the least-reviewed item.

    Users pick by *perceived* utility, drawn uniformly from each item's
    current review interval (mean +- ``REVIEW_HALFWIDTH / sqrt(count)``, or
    +- ``PRIOR_HALFWIDTH`` before the first review); the pick then leaves a
    review ``utility + noise`` with noise sd ``REVIEW_NOISE_SD``. While any
    two intervals overlap, the least-reviewed overlapping item is forced to
    the top slot (ties toward the lower index; remaining items follow in
    index order), which guarantees it is reviewed whenever the window is 1.
    Every trial of the burn-in is such a forced display.
    """
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
