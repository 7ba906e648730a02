"""Core model: rankings, attention-window user choice, and regret accounting.

Items carry a utility (drives which displayed item a user picks) and,
in the stochastic regime, a mean payoff (drives what the platform earns).
A user with attention window ``w`` looks at the first ``w`` positions of
the displayed ranking and picks the item there with the highest utility.
The platform only observes that pick and its payoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

Permutation = tuple[int, ...]

# how far from 1 the sum of a probability vector may drift (rounding only)
PROBABILITY_TOL = 1e-9


class DegenerateInstanceError(ValueError):
    """Raised when an operation needs strictly positive mean gaps but found a tie."""


def probability_vector(v, name: str = "q") -> np.ndarray:
    """Check that ``v`` is a probability vector and return it as a float array.

    ``v`` must be a non-empty 1-d array of finite entries ``>= 0`` whose sum
    is within :data:`PROBABILITY_TOL` of 1. Every window law and mixture
    weight vector in the package is checked here; errors start with ``name``.
    """
    arr = _float_array(v, name).copy()
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name}: expected a non-empty 1-d array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: entries must be finite")
    if np.any(arr < 0):
        raise ValueError(f"{name}: entries must be >= 0")
    if abs(float(arr.sum()) - 1.0) > PROBABILITY_TOL:
        raise ValueError(f"{name}: must sum to 1 within {PROBABILITY_TOL:g}")
    return arr


def _float_array(values, name: str) -> np.ndarray:
    """``values`` as a float array; a ValueError names ``name`` when they are
    not numbers (a JSON object, a string, a boolean, a ragged list)."""
    try:
        if _holds_text_or_bool(values):
            raise TypeError
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name}: expected an array of numbers") from None


def _holds_text_or_bool(values) -> bool:
    """Whether (nested lists of) ``values`` hold a string or a boolean, which
    numpy would turn into a number."""
    if isinstance(values, (list, tuple)):
        return any(map(_holds_text_or_bool, values))
    if isinstance(values, np.ndarray):
        return values.dtype.kind in "bSU"
    return isinstance(values, (str, bytes, bool, np.bool_))


def user_select(order: Sequence[int], utilities: Sequence[float], w: int):
    """Item a user with attention window ``w`` picks from the displayed ``order``.

    The user scans positions ``0..w-1`` and takes the item with the highest
    utility there. Utilities are assumed pairwise distinct; ties are undefined.
    """
    if not 1 <= w <= len(order):
        raise ValueError(f"window length {w} outside [1, {len(order)}]")
    best = order[0]
    best_u = utilities[best]
    for pos in range(1, w):
        item = order[pos]
        if utilities[item] > best_u:
            best = item
            best_u = utilities[item]
    return best


def utility_ranks(utilities: Sequence[float]) -> np.ndarray:
    """Rank of each item when sorted by increasing utility (rank 0 = lowest)."""
    by_utility = np.argsort(np.asarray(utilities), kind="stable")
    ranks = np.empty(len(by_utility), dtype=np.int64)
    ranks[by_utility] = np.arange(len(by_utility))
    return ranks


def items_by_rank(utilities: Sequence[float]) -> np.ndarray:
    """Inverse of :func:`utility_ranks`: ``items_by_rank(u)[r]`` is the item of rank r."""
    return np.argsort(np.asarray(utilities), kind="stable")


def selection_matrix(order: Sequence[int], utilities: Sequence[float]) -> np.ndarray:
    """Selection indicator matrix of a ranking, rows indexed by utility rank.

    Entry ``(i, w-1)`` is 1 when a user with window ``w`` picks the item of
    utility rank ``i`` under the displayed ``order``. Within a fixed ranking
    the picked rank can only go up as the window grows, so each column is a
    unit vector and the nonzero row index is non-decreasing across columns.
    """
    n = len(order)
    utilities = np.asarray(utilities)
    if len(utilities) != n:
        raise ValueError("order and utilities must have the same length")
    ranks = utility_ranks(utilities)
    picked = np.maximum.accumulate(ranks[list(order)])
    P = np.zeros((n, n))
    P[picked, np.arange(n)] = 1.0
    return P


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _unchangeable(values) -> np.ndarray | None:
    """``values`` if it is an array nothing can write to in place (read-only
    and owning its data, as :func:`_frozen_array` makes it), otherwise None.

    A ranker that keeps it may skip comparing the same array when it comes
    again while still read-only; a list or a writeable array is compared.
    """
    if (isinstance(values, np.ndarray) and not values.flags.writeable
            and values.flags.owndata):
        return values
    return None


def _distinct_finite(u: list, name: str = "utilities") -> None:
    """Reject utilities ``u``, called ``name``, that are not finite or not distinct."""
    if not all(map(math.isfinite, u)):
        raise ValueError(f"{name}: entries must be finite")
    if len(set(u)) != len(u):
        raise ValueError(f"{name}: must be pairwise distinct (ties are undefined)")


def _check_payoff(t: int, item: int, payoff: float) -> None:
    """Reject a payoff that is not finite, naming the trial and the item."""
    if not math.isfinite(payoff):
        raise ValueError(f"trial {t}: payoff {payoff!r} for item {item} is not finite")


def _see_utilities(ranker, utilities) -> None:
    """Compare ``utilities`` by value with ``ranker._utilities``; on a change,
    check them, call ``ranker._rebuild(by_rank, ranks)`` and keep them as a list.

    Unless there are ``ranker.n`` utilities that pass :func:`_distinct_finite`,
    a ValueError is raised before anything changes, so a rejected array is
    not kept and is compared again next time. ``by_rank`` is the list of
    :func:`items_by_rank`, the item of each utility rank (rank 0 the lowest),
    and ``ranks`` its inverse, the list of :func:`utility_ranks`.

    A ranker calls this from ``act`` unless ``utilities`` is the array it
    kept in ``_shown`` and is still read-only. ``_shown`` becomes
    :func:`_unchangeable` of ``utilities``.
    """
    u = utilities.tolist() if isinstance(utilities, np.ndarray) else list(utilities)
    if u != ranker._utilities:
        if len(u) != ranker.n:
            raise ValueError(f"expected {ranker.n} utilities, got {len(u)}")
        _distinct_finite(u)
        by_rank = items_by_rank(u).tolist()
        ranks = [0] * len(u)
        for r, item in enumerate(by_rank):
            ranks[item] = r
        ranker._rebuild(by_rank, ranks)
        ranker._utilities = u
    ranker._shown = _unchangeable(utilities)


@dataclass(frozen=True)
class Instance:
    """A problem instance: item utilities plus (optionally) mean payoffs.

    The utilities hold for a whole episode, as the users' preferences do;
    only windows and payoffs change from trial to trial.
    """

    utilities: np.ndarray
    means: np.ndarray | None = None

    def __post_init__(self):
        u = _float_array(self.utilities, "utilities")
        if u.ndim != 1 or u.size == 0:
            raise ValueError("utilities: expected a non-empty 1-d array")
        _distinct_finite(u.tolist())
        object.__setattr__(self, "utilities", _frozen_array(u))
        if self.means is not None:
            m = _float_array(self.means, "means")
            if m.shape != u.shape:
                raise ValueError("means: length must match utilities")
            if not np.all(np.isfinite(m)):
                raise ValueError("means: entries must be finite")
            object.__setattr__(self, "means", _frozen_array(m))

    @property
    def n(self) -> int:
        return int(self.utilities.size)

    def gap(self, i: int, j: int) -> float:
        """Mean-payoff gap ``means[i] - means[j]``."""
        if self.means is None:
            raise ValueError("instance has no mean payoffs")
        return float(self.means[i] - self.means[j])

    @classmethod
    def from_dict(cls, d: dict) -> "Instance":
        if "utilities" not in d:
            raise ValueError("instance.utilities: required")
        try:
            instance = cls(utilities=d["utilities"], means=d.get("means"))
        except ValueError as exc:
            raise ValueError(f"instance.{exc}") from None
        if "n" in d and int(d["n"]) != instance.n:
            raise ValueError("instance.n: does not match utilities length")
        return instance

    def to_dict(self) -> dict:
        out = {"n": self.n, "utilities": self.utilities.tolist()}
        if self.means is not None:
            out["means"] = self.means.tolist()
        return out


@dataclass(frozen=True)
class OptimalFamily:
    """The family of rankings maximizing expected payoff at every window length.

    ``undominated`` lists the items no other item beats in both utility and
    mean, in decreasing-mean order. ``blocks[k]`` holds the dominated items
    assigned to ``undominated[k]`` (its cover in the family), ascending by
    item index. Every member ranking places each undominated item directly
    followed by its block, blocks ordered as in ``undominated``; members
    differ only by rearranging items inside a block.
    """

    undominated: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    representative: Permutation
    benchmark_by_window: tuple[int, ...]


def _family_from_arrays(by_rank, means, *, strict: bool = True) -> OptimalFamily:
    """The optimal family of items with mean payoffs ``means`` and utility order
    ``by_rank`` (:func:`items_by_rank`), in one walk from the highest utility down.

    The walk keeps the best undominated item seen so far: the highest mean, and
    the lowest index among equal means. The items seen before ``j`` have higher
    utility, so ``j`` is dominated iff its mean is ``<`` that item's, and then
    joins that item's block. Under ``strict``, tied means raise.
    """
    if strict and len(set(float(m) for m in means)) != len(by_rank):
        raise DegenerateInstanceError("mean payoffs must be pairwise distinct")
    blocks: dict[int, list[int]] = {}
    lead = by_rank[-1]
    for j in reversed(by_rank):
        if means[j] < means[lead]:
            blocks[lead].append(j)
        else:
            blocks[j] = []
            if means[j] > means[lead] or j < lead:
                lead = j
    undominated = sorted(blocks, key=lambda i: (-means[i], i))
    representative: list[int] = []
    benchmark: list[int] = []
    for s in undominated:
        blocks[s].sort()
        representative.append(s)
        representative.extend(blocks[s])
        benchmark.extend([s] * (1 + len(blocks[s])))
    return OptimalFamily(
        undominated=tuple(undominated),
        blocks=tuple(tuple(blocks[s]) for s in undominated),
        representative=tuple(representative),
        benchmark_by_window=tuple(benchmark),
    )


def optimal_family(instance: Instance) -> OptimalFamily:
    """Optimal ranking family of an instance with known mean payoffs."""
    if instance.means is None:
        raise ValueError("instance has no mean payoffs")
    return _family_from_arrays(items_by_rank(instance.utilities).tolist(), instance.means)


def regret_upper_bound(instance: Instance, horizon: int, delta: float) -> float:
    """Gap-dependent upper bound on cumulative pseudo-regret of the elimination ranker.

    Sums ``8 log(4 n T^2 / delta)`` divided by the relevant mean gap, once per
    adjacent undominated pair and once per (leader, dominated item) pair.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    family = optimal_family(instance)
    means = instance.means
    log_term = math.log(4.0 * instance.n * float(horizon) ** 2 / delta)
    s = family.undominated
    pairs = [*zip(s, s[1:])] + [(lead, j) for lead, block in zip(s, family.blocks) for j in block]
    return sum((8.0 * log_term / float(means[a] - means[b]) for a, b in pairs), 0.0)
