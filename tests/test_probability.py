"""One probability check for every window law: the config, the window source,
the mirror-descent engine, the coupling and the lazy pivot mixture accept
and reject exactly the same vectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankbandit.adversarial import BLORanker, EpsilonGreedyRanker, MirrorDescent, lazy_alpha
from rankbandit.core import PROBABILITY_TOL, probability_vector
from rankbandit.environments import MultinomialWindows
from rankbandit.harness import ExperimentConfig, run_replication
from rankbandit.polytope import Decomposition, feasible_matrix


def _config(q, **overrides) -> dict:
    n = len(q)
    raw = {
        "instance": {"utilities": list(range(1, n + 1)), "means": [0.0] * n},
        "window": {"type": "multinomial", "q": list(q)},
        "payoffs": {"type": "gaussian"},
        "policy": {"name": "elim"},
        "horizon": 10,
    }
    raw.update(overrides)
    return raw


def _accepts(fn) -> bool:
    try:
        fn()
    except ValueError:
        return False
    return True


def _is_lazy(q: np.ndarray) -> bool:
    return bool(q[0] > 0 and np.all(np.diff(q) <= 0))


@st.composite
def window_laws(draw):
    """Probability vectors pushed across every edge of the check."""
    n = draw(st.integers(1, 6))
    raw = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    q = raw / raw.sum() if raw.sum() > 0 else np.full(n, 1.0 / n)
    if draw(st.booleans()):
        q = np.sort(q)[::-1].copy()
    j = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["exact", "shift", "negative", "nan", "inf"]))
    if kind == "shift":
        # straddles the tolerance on both sides of 1
        size = draw(st.sampled_from([5e-11, 5e-10, 0.99e-9, 1.01e-9, 2e-9, 1e-6, 0.1]))
        q[j] += size * draw(st.sampled_from([-1.0, 1.0]))
    elif kind == "negative":
        q[j] = -draw(st.sampled_from([1e-13, 1e-12, 1e-6]))
    elif kind == "nan":
        q[j] = np.nan
    elif kind == "inf":
        q[j] = np.inf
    return q


class TestProbabilityVector:
    def test_returns_float_copy(self):
        src = [0.5, 0.5]
        out = probability_vector(src)
        assert out.dtype == float and out.tolist() == src

    @pytest.mark.parametrize("bad, message", [
        ([], "non-empty"),
        ([[0.5, 0.5]], "1-d"),
        (["a", "b"], "numbers"),
        ([0.5, np.nan], "finite"),
        ([1.0 + 1e-12, -1e-12], ">= 0"),
        ([0.5, 0.5 + 2 * PROBABILITY_TOL], "sum to 1"),
    ])
    def test_rejections_name_the_vector(self, bad, message):
        with pytest.raises(ValueError, match=rf"^w: .*{message}"):
            probability_vector(bad, name="w")

    def test_tolerance_edges(self):
        assert probability_vector([0.5, 0.5 + 0.5 * PROBABILITY_TOL]).size == 2
        with pytest.raises(ValueError):
            probability_vector([0.5, 0.5 + 2 * PROBABILITY_TOL])


class TestEveryConsumerAgrees:
    @settings(max_examples=300, deadline=None)
    @given(window_laws())
    def test_accept_and_reject_together(self, q):
        config = _accepts(lambda: ExperimentConfig.from_dict(_config(q.tolist())))
        verdicts = {
            "MultinomialWindows": _accepts(lambda: MultinomialWindows(q, seed=0).draw(1)),
            "MirrorDescent": _accepts(lambda: MirrorDescent(q, horizon=10)),
            "feasible_matrix": _accepts(lambda: feasible_matrix(q, q)),
        }
        assert verdicts == dict.fromkeys(verdicts, config), (q.tolist(), config)
        lazy = _accepts(lambda: lazy_alpha(q))
        if not config:
            assert not lazy
        elif _is_lazy(q):
            assert lazy

    @pytest.mark.parametrize("off", [5e-11, -5e-11])
    def test_slightly_off_q_is_accepted_everywhere(self, off):
        q = np.array([0.5, 0.3, 0.2 + off])
        assert abs(q.sum() - 1.0) > 1e-12
        raw = _config(q.tolist(), policy={"name": "osmd"},
                      payoffs={"type": "bernoulli", "rates": [0.2, 0.8, 0.5]}, horizon=50)
        summary, trace = run_replication(ExperimentConfig.from_dict(raw), 0)
        assert len(trace) == 50 and np.isfinite(summary["final_regret"])
        windows = MultinomialWindows(q, seed=1)
        assert all(1 <= windows.draw(t) <= 3 for t in range(1, 20))
        feasible_matrix(q, q)
        lazy_alpha(q)
        EpsilonGreedyRanker(q, rng=np.random.default_rng(0))
        ranker = BLORanker(q, horizon=50, rng=np.random.default_rng(0))
        ranker.feed(1, ranker.act(1, [1.0, 2.0, 3.0])[0], 1.0)

    def test_tiny_negative_entry_is_rejected_everywhere(self):
        q = np.array([0.5, 0.5 + 1e-13, -1e-13])
        for build in (lambda: ExperimentConfig.from_dict(_config(q.tolist())),
                      lambda: MultinomialWindows(q, seed=0),
                      lambda: MirrorDescent(q, horizon=10),
                      lambda: BLORanker(q, horizon=10, rng=np.random.default_rng()),
                      lambda: feasible_matrix(q, q),
                      lambda: lazy_alpha(q)):
            with pytest.raises(ValueError, match=">= 0"):
                build()

    def test_engine_and_ranker_share_one_q(self):
        ranker = BLORanker([0.5, 0.3, 0.2], horizon=10, rng=np.random.default_rng())
        assert not hasattr(ranker, "q")
        assert ranker.engine.q.tolist() == [0.5, 0.3, 0.2]

    def test_decomposition_weights(self):
        orders = ((0, 1), (1, 0))
        assert Decomposition([0.4, 0.6 + 5e-11], orders).weights.size == 2
        with pytest.raises(ValueError, match="weights: .*sum to 1"):
            Decomposition([0.4, 0.7], orders)
        with pytest.raises(ValueError, match="strictly positive"):
            Decomposition([0.0, 1.0], orders)
