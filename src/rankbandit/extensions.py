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

import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import Permutation, _check_payoff, user_select
from .environments import _blocks

# social-learning burn-in: review interval half-width at one review, review
# noise, and the half-width of the interval before any review
REVIEW_HALFWIDTH = 3.0
REVIEW_NOISE_SD = 1.0
PRIOR_HALFWIDTH = 10.0


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

        ``uniform`` delays are drawn from ``rng`` in blocks that grow from 32
        to ``BLOCK`` values by ``environments._blocks``, which serves the
        payoff and window sources and the rankers' uniforms too; that gives
        the same numbers as one ``rng.integers(0, tau_max + 1)`` per payoff.
        ``none`` and ``fixed`` take nothing from ``rng`` and need none.
        """
        if self.kind != "uniform":
            return itertools.repeat(self.tau_max)
        if rng is None:
            raise ValueError("uniform delays need rng, a numpy Generator")
        return _blocks(functools.partial(rng.integers, 0, self.tau_max + 1))

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


class QueuedDelayPolicy:
    """Queue-per-item adaptation of a single base policy to delayed payoffs.

    The base policy advances one step at a time: it proposes a ranking, the
    first user pick under that ranking becomes the base's request, and the
    wrapper keeps displaying the same ranking until a payoff for the
    requested item is due. Every observed payoff goes onto its item's heap
    ``queues[item]`` as ``(due, t, payoff)`` with ``due = t + tau``, so
    off-request picks are banked rather than lost. Delays come
    from :meth:`DelayModel.delays`: ``uniform`` ones are drawn from ``rng``
    in blocks that grow from 32 to ``BLOCK`` values by
    ``environments._blocks``, the same numbers as one draw per payoff.
    ``feed`` rejects a non-finite payoff, or one that no ``act`` awaits,
    before it draws a delay, and a payoff leaves its heap only once the base
    has taken it.

    No inversion budget is stated for delayed feedback:
    :func:`~rankbandit.elimination.inversion_budget` holds only when every
    selection is fed back before the next trial, and no budget is derived or
    tested for a ranker behind this wrapper.
    """

    def __init__(self, base, delay: DelayModel, rng: np.random.Generator | None = None):
        self.base = base
        self._delays = delay.delays(rng)
        self.queues: dict[int, list[tuple[int, int, float]]] = {}
        self.pending: int | None = None  # None while the base's request is open
        self.base_clock = 1
        self._order: Permutation | None = None
        self._awaiting = False  # True from an act until its feed
        self.dequeued = 0

    def act(self, t: int, utilities) -> Permutation:
        self._awaiting = True
        pending = self.pending
        if pending is not None:
            queue = self.queues.get(pending)
            if not queue or queue[0][0] >= t:
                return self._order
            self.base.feed(self.base_clock, pending, queue[0][2])
            heapq.heappop(queue)
            self.dequeued += 1
            self.base_clock += 1
            self.pending = None
        self._order = self.base.act(self.base_clock, utilities)
        return self._order

    def feed(self, t: int, item: int, payoff: float) -> None:
        _check_payoff(t, item, payoff)
        if not self._awaiting:
            raise RuntimeError(f"trial {t}: feed for item {item} follows no act")
        self._awaiting = False
        tau = next(self._delays)
        heapq.heappush(self.queues.setdefault(item, []), (t + tau, t, payoff))
        if self.pending is None:
            self.pending = item

    @property
    def backlog(self) -> int:
        return sum(map(len, self.queues.values()))


_AWAITING = (math.inf,)  # the slot of an instance whose payoff is not yet fed


class PooledDelayPolicy:
    """Round-robin pool of independent base instances for delayed payoffs.

    Each trial goes to the lowest-index free instance, spawning a new
    instance when none is free. The one payoff an instance owes waits in its
    slot as ``(due, item, payoff)`` until an ``act`` after trial ``due``
    feeds it back to that instance, which frees it. With delays bounded by
    ``tau_max`` the pool never exceeds ``tau_max + 1`` instances. Delays are
    drawn as in :class:`QueuedDelayPolicy`, in blocks by ``environments._blocks``.
    ``feed`` checks payoffs as there and rejects one that no ``act`` awaits.

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
        self._held: list[tuple | None] = []  # None while the instance is free
        self._active: int | None = None

    def act(self, t: int, utilities) -> Permutation:
        held = self._held
        for i, entry in enumerate(held):
            if entry and entry[0] < t:
                self.instances[i].feed(self._acts_done[i], entry[1], entry[2])
                held[i] = None
        try:
            free = held.index(None)
        except ValueError:
            free = len(self.instances)
            self.instances.append(self.base_factory(free))
            self._acts_done.append(0)
            held.append(None)
            if self.delay.tau_max + 1 < len(self.instances):
                raise AssertionError(
                    f"pool grew to {len(self.instances)} > tau_max + 1")
        self._acts_done[free] += 1
        held[free] = _AWAITING
        self._active = free
        return self.instances[free].act(self._acts_done[free], utilities)

    def feed(self, t: int, item: int, payoff: float) -> None:
        _check_payoff(t, item, payoff)
        if self._active is None:
            raise RuntimeError(f"trial {t}: feed for item {item} follows no act")
        tau = next(self._delays)
        self._held[self._active] = (t + tau, item, payoff)
        self._active = None

    @property
    def pool_size(self) -> int:
        return len(self.instances)


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
        rest = list(range(n))
        rest.remove(a)
        rest.remove(b)
        display, swapped = (a, b, *rest), (b, a, *rest)
        while True:
            if trials >= budget:
                raise PartialOrderError(
                    f"budget {budget} exhausted after {comparisons} comparisons")
            trials += 1
            if show(display) == display[1]:
                return display[1]
            display, swapped = swapped, display

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
    utilities = np.asarray(utilities, dtype=float).tolist()
    n = len(utilities)
    counts = [0] * n
    sums = [0.0] * n
    lo = [-PRIOR_HALFWIDTH] * n
    hi = [PRIOR_HALFWIDTH] * n
    # overlaps[i]: how many other intervals overlap item i's, at first all
    # of them; a review moves one interval, so only its pairs are checked again
    overlaps = [n - 1] * n
    trials = 0
    while True:
        unresolved = [i for i in range(n) if overlaps[i]]
        if not unresolved or trials >= budget:
            break
        target = min(unresolved, key=counts.__getitem__)  # first of the least reviewed
        order = [target] + [i for i in range(n) if i != target]
        trials += 1
        w = windows.draw(trials)
        prefix = order[:w]
        values = [rng.uniform(lo[i], hi[i]) for i in prefix]
        y = prefix[values.index(max(values))]
        counts[y] += 1
        sums[y] += utilities[y] + rng.normal(0.0, REVIEW_NOISE_SD)
        mid = sums[y] / counts[y]
        r = REVIEW_HALFWIDTH / math.sqrt(counts[y])
        new_lo, new_hi = mid - r, mid + r
        for j in range(n):
            if j != y:
                now = new_lo < hi[j] and lo[j] < new_hi
                if now != (lo[y] < hi[j] and lo[j] < hi[y]):
                    step = 1 if now else -1
                    overlaps[j] += step
                    overlaps[y] += step
        lo[y], hi[y] = new_lo, new_hi

    counts = np.array(counts, dtype=np.int64)
    means = np.divide(sums, counts, out=np.full(n, np.nan), where=counts > 0)
    return SocialLearningReport(
        separated=not unresolved, counts=counts, means=means, trials=trials)
