import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    best_mean_by_window, family_contains, family_members, family_oracle, naive_select,
    optimal_orders, pivot_permutation, random_instance,
)
from rankbandit import elimination
from rankbandit.adversarial import BLORanker, EpsilonGreedyRanker
from rankbandit.core import (
    DegenerateInstanceError,
    Instance,
    OptimalFamily,
    _family_from_arrays,
    _frozen_array,
    items_by_rank,
    optimal_family,
    regret_upper_bound,
    selection_matrix,
    user_select,
    utility_ranks,
)


def pseudo_regret(instance: Instance, order, w: int,
                  family: OptimalFamily | None = None) -> float:
    """Expected payoff shortfall of ``order`` against the optimal family at window ``w``."""
    if family is None:
        family = optimal_family(instance)
    picked = user_select(order, instance.utilities, w)
    return float(instance.means[family.benchmark_by_window[w - 1]] - instance.means[picked])


class TestUserSelect:
    def test_window_one_takes_top_slot(self):
        assert user_select((1, 0, 2), (0.1, 0.9, 0.5), 1) == 1

    def test_full_window_takes_global_max(self):
        assert user_select((1, 0, 2), (0.1, 0.9, 0.5), 3) == 1

    def test_prefix_argmax(self):
        assert user_select((0, 1, 2), (0.1, 0.9, 0.5), 2) == 1

    def test_window_out_of_range(self):
        with pytest.raises(ValueError):
            user_select((0, 1), (0.1, 0.9), 0)
        with pytest.raises(ValueError):
            user_select((0, 1), (0.1, 0.9), 3)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_linear_scan_oracle(self, data):
        n = data.draw(st.integers(2, 7))
        order = data.draw(st.permutations(range(n)))
        utilities = data.draw(
            st.lists(st.floats(-10, 10), min_size=n, max_size=n, unique=True))
        w = data.draw(st.integers(1, n))
        assert user_select(order, utilities, w) == naive_select(order, utilities, w)


class TestRankMaps:
    def test_ranks_ascending(self):
        assert utility_ranks([3.0, 1.0, 2.0]).tolist() == [2, 0, 1]

    def test_items_by_rank_inverts(self):
        u = [0.4, 0.1, 0.9, 0.2]
        ranks = utility_ranks(u)
        by_rank = items_by_rank(u)
        assert all(ranks[by_rank[r]] == r for r in range(4))


class TestSelectionMatrix:
    def test_rows_indexed_by_rank(self):
        # ranking (1, 0, 2) with increasing-utility labels: windows pick
        # rank 1, rank 1, rank 2
        P = selection_matrix((1, 0, 2), (0.1, 0.5, 0.9))
        expected = np.zeros((3, 3))
        expected[1, 0] = expected[1, 1] = expected[2, 2] = 1.0
        assert np.array_equal(P, expected)

    def test_ascending_order_is_identity(self):
        P = selection_matrix((0, 1, 2, 3), (1, 2, 3, 4))
        assert np.array_equal(P, np.eye(4))

    def test_columns_are_unit(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            order = rng.permutation(n)
            u = rng.permutation(n).astype(float)
            P = selection_matrix(order, u)
            assert np.allclose(P.sum(axis=0), 1.0)
            # picked rank equals the oracle's pick, mapped through the ranks
            ranks = utility_ranks(u)
            for w in range(1, n + 1):
                assert P[ranks[naive_select(list(order), u, w)], w - 1] == 1.0


class TestInstance:
    def test_requires_distinct_utilities(self):
        with pytest.raises(ValueError, match="distinct"):
            Instance(utilities=[1.0, 1.0, 2.0])

    def test_dict_round_trip(self):
        inst = Instance(utilities=[1, 2, 3], means=[0.3, 0.2, 0.1])
        again = Instance.from_dict(inst.to_dict())
        assert np.array_equal(again.utilities, inst.utilities)
        assert np.array_equal(again.means, inst.means)

    def test_from_dict_field_errors(self):
        with pytest.raises(ValueError, match="instance.utilities"):
            Instance.from_dict({"means": [1.0]})
        with pytest.raises(ValueError, match="instance.n"):
            Instance.from_dict({"n": 3, "utilities": [1, 2]})
        with pytest.raises(ValueError, match="instance.means"):
            Instance.from_dict({"utilities": [1, 2], "means": [1.0]})


class TestSeeUtilities:
    """A ranker's ``act`` skips the utilities check only for the same
    read-only array that owns its data; anything else goes through
    ``_see_utilities``, which rebuilds when the values changed."""

    @pytest.mark.parametrize("shown", ["same frozen", "writeable", "read-only view",
                                       "thawed", "list"])
    def test_compares_unless_unchangeable(self, shown, monkeypatch):
        base = np.array([0.3, 0.8, 0.1])
        if shown in ("same frozen", "thawed"):
            array = Instance(utilities=base).utilities
            base = array
        elif shown == "read-only view":
            array = base.view()
            array.setflags(write=False)
        elif shown == "list":
            array = base = base.tolist()
        else:
            array = base
        seen, rebuilt = [], []
        see = elimination._see_utilities
        monkeypatch.setattr(elimination, "_see_utilities",
                            lambda ranker, u: seen.append(1) or see(ranker, u))
        ranker = elimination.EliminationRanker(3, 0.1)
        rebuild = ranker._rebuild
        ranker._rebuild = lambda *maps: rebuilt.append(maps[0]) or rebuild(*maps)
        ranker.act(1, array)
        ranker.act(2, array)
        frozen = shown in ("same frozen", "thawed")
        assert (len(seen), len(rebuilt)) == (1 if frozen else 2, 1)
        if shown == "same frozen":
            return
        if shown == "thawed":
            base.setflags(write=True)
        base[:] = [0.9, 0.8, 0.1]  # in place, between two acts
        assert ranker.act(3, array) == (0, 1, 2)
        assert (len(seen), rebuilt[-1]) == (2 if frozen else 3, [2, 1, 0])

    _RANKERS = pytest.mark.parametrize("build", [
        lambda n: elimination.EliminationRanker(n, 0.1),
        lambda n: BLORanker([1.0 / n] * n, horizon=10, rng=np.random.default_rng(1)),
        lambda n: EpsilonGreedyRanker([1.0 / n] * n, rng=np.random.default_rng(1)),
    ], ids=["elim", "osmd", "eps-greedy"])

    @_RANKERS
    def test_rejected_utilities_are_compared_again(self, build):
        ranker = build(3)
        ranker.act(1, Instance(utilities=[0.3, 0.8, 0.1]).utilities)
        for wrong, message in [([0.1, 0.2, 0.3, 0.4], "expected 3 utilities, got 4"),
                               ([0.1, 0.3, 0.1], "must be pairwise distinct"),
                               ([0.1, math.nan, 0.3], "entries must be finite")]:
            wrong = _frozen_array(wrong)  # read-only, so only a kept one is skipped
            for t in (2, 3):
                with pytest.raises(ValueError, match=message):
                    ranker.act(t, wrong)
            assert ranker._utilities == [0.3, 0.8, 0.1]

    @_RANKERS
    @pytest.mark.parametrize("kind", ["list", "ndarray"])
    def test_rank_maps(self, build, kind):
        """Every ranker keeps the maps ``_see_utilities`` built, and
        epsilon-greedy its pivot rankings in items, for the latest utilities."""
        rng = np.random.default_rng(19)
        for n in range(1, 13):
            ranker = build(n)
            assert ranker.n == n
            for t in (1, 2):
                u = rng.permutation(n) + rng.uniform(0.0, 0.5, n)
                ranker.act(t, u.tolist() if kind == "list" else u)
                by_rank = items_by_rank(u).tolist()
                ranks = utility_ranks(u).tolist()
                if isinstance(ranker, elimination.EliminationRanker):
                    assert (ranker._asc, ranker._pos) == (by_rank, ranks)
                elif isinstance(ranker, BLORanker):
                    assert ranker._maps == (ranks, by_rank)
                else:
                    assert ranker._explore == [
                        tuple(by_rank[r] for r in pivot_permutation(i, n))
                        for i in range(n)]


class TestOptimalFamily:
    def test_all_undominated_chain(self):
        fam = optimal_family(Instance(utilities=[1, 2, 3], means=[3.0, 2.0, 1.0]))
        assert fam.undominated == (0, 1, 2)
        assert all(not b for b in fam.blocks)
        assert fam.representative == (0, 1, 2)

    def test_dominated_item_joins_leader_block(self):
        fam = optimal_family(Instance(utilities=[1, 2, 3], means=[1.0, 3.0, 2.0]))
        assert fam.undominated == (1, 2)
        assert fam.blocks == ((0,), ())
        assert fam.representative == (1, 0, 2)
        assert fam.benchmark_by_window == (1, 1, 2)

    def test_single_item(self):
        fam = optimal_family(Instance(utilities=[1.0], means=[0.5]))
        assert fam.representative == (0,)

    def test_degenerate_means_rejected(self):
        with pytest.raises(DegenerateInstanceError):
            optimal_family(Instance(utilities=[1, 2], means=[0.5, 0.5]))

    def test_members_match_extensional_oracle(self):
        """Family membership agrees with enumeration of rankings optimal at
        every window, on a batch of random instances."""
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            utilities, means = random_instance(rng, n)
            fam = optimal_family(Instance(utilities=utilities, means=means))
            oracle = optimal_orders(utilities, means)
            assert set(family_members(fam)) == oracle
            for order in itertools.permutations(range(n)):
                assert family_contains(fam, order) == (order in oracle)

    def test_exact_fraction_arithmetic(self):
        u = [Fraction(1), Fraction(2), Fraction(3)]
        m = [Fraction(1, 3), Fraction(1, 2), Fraction(1, 4)]
        for fam in (_family_from_arrays([0, 1, 2], m), family_oracle(u, m)):
            assert fam.undominated == (1, 2)
            assert fam.blocks == ((0,), ())

    def test_walk_matches_pairwise_oracle(self):
        """The walk down the utility order gives the pairwise dominance test's
        family, on means from small grids so that ties are common; tied means
        raise under ``strict`` in both."""
        rng = np.random.default_rng(23)
        raised = 0
        for case in range(3000):
            n = int(rng.integers(1, 13))
            grid = (2, 3, 5, 1000)[case % 4]
            utilities = (rng.permutation(n) + rng.uniform(0.0, 0.5, n)).tolist()
            means = (rng.integers(0, grid, n) / grid).tolist()
            by_rank = items_by_rank(utilities).tolist()
            assert _family_from_arrays(by_rank, means, strict=False) == family_oracle(
                utilities, means, strict=False)
            if len(set(means)) == n:
                assert _family_from_arrays(by_rank, means) == family_oracle(
                    utilities, means)
                continue
            raised += 1
            with pytest.raises(DegenerateInstanceError):
                _family_from_arrays(by_rank, means)
            with pytest.raises(DegenerateInstanceError):
                family_oracle(utilities, means)
        assert raised > 1000

    def test_members_have_zero_regret_everywhere(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            utilities, means = random_instance(rng, n)
            inst = Instance(utilities=utilities, means=means)
            fam = optimal_family(inst)
            for member in family_members(fam):
                for w in range(1, n + 1):
                    assert pseudo_regret(inst, member, w, fam) == 0.0

    def test_benchmark_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            utilities, means = random_instance(rng, n)
            fam = optimal_family(Instance(utilities=utilities, means=means))
            for w in range(1, n + 1):
                assert means[fam.benchmark_by_window[w - 1]] == pytest.approx(
                    best_mean_by_window(utilities, means, w), abs=1e-12)


class TestPseudoRegret:
    def test_examples(self):
        inst = Instance(utilities=[1, 2, 3], means=[1.0, 3.0, 2.0])
        assert pseudo_regret(inst, (2, 0, 1), 1) == pytest.approx(1.0)
        assert pseudo_regret(inst, (0, 1, 2), 1) == pytest.approx(2.0)
        assert pseudo_regret(inst, (1, 0, 2), 1) == 0.0


class TestRegretUpperBound:
    def test_two_item_value(self):
        inst = Instance(utilities=[1, 2], means=[1.0, 0.5])
        expected = 16.0 * math.log(8e10)  # 8 log(4*2*(1e4)^2/0.01) / 0.5
        assert regret_upper_bound(inst, 10_000, 0.01) == pytest.approx(expected, rel=1e-12)

    def test_three_item_value(self):
        inst = Instance(utilities=[1, 2, 3], means=[1.0, 3.0, 2.0])
        expected = 12.0 * math.log(1.2e8)  # 8 log(4*3*(1e3)^2/0.1) * (1/1 + 1/2)
        assert regret_upper_bound(inst, 1_000, 0.1) == pytest.approx(expected, rel=1e-12)

    def test_chain_value_frozen(self):
        inst = Instance(utilities=[1, 2, 3, 4, 5], means=[2.0, 1.5, 1.0, 0.5, 0.0])
        # four adjacent pairs, each gap 0.5: 4 * 8 log(4*5*(1e5)^2/0.01) / 0.5
        assert regret_upper_bound(inst, 100_000, 0.01) == pytest.approx(
            64.0 * math.log(2e13), rel=1e-12)
        assert regret_upper_bound(inst, 100_000, 0.01) == pytest.approx(
            1960.1122169268824, abs=1e-9)

    def test_single_undominated_no_dominated(self):
        inst = Instance(utilities=[1.0], means=[0.7])
        assert regret_upper_bound(inst, 100, 0.1) == 0.0

    def test_matches_oracle_sum_with_positive_gaps(self):
        """The bound is the sum over the pairwise oracle's family, and every gap
        in it is positive once the means are distinct."""
        rng = np.random.default_rng(29)
        checked = 0
        for _ in range(300):
            n = int(rng.integers(1, 9))
            utilities = rng.permutation(n) + 1.0
            means = rng.integers(0, 4 * n, n) / (4 * n)
            if len(set(means.tolist())) != n:
                continue
            checked += 1
            fam = family_oracle(utilities, means)
            s = fam.undominated
            gaps = [means[a] - means[b] for a, b in zip(s, s[1:])]
            gaps += [means[leader] - means[j]
                     for leader, block in zip(s, fam.blocks) for j in block]
            assert all(g > 0 for g in gaps)
            log_term = math.log(4.0 * n * 500.0 ** 2 / 0.05)
            total = 0.0
            for g in gaps:
                total += 8.0 * log_term / float(g)
            inst = Instance(utilities=utilities, means=means)
            assert regret_upper_bound(inst, 500, 0.05) == total
        assert checked > 150

    def test_input_validation(self):
        inst = Instance(utilities=[1, 2], means=[1.0, 0.5])
        with pytest.raises(ValueError):
            regret_upper_bound(inst, 0, 0.1)
        with pytest.raises(ValueError):
            regret_upper_bound(inst, 10, 0.0)
        with pytest.raises(ValueError):
            regret_upper_bound(Instance(utilities=[1, 2]), 10, 0.1)
