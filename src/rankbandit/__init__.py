"""Online learning-to-rank for users who only inspect a prefix of the list.

Each trial the platform displays a ranking, the user examines the first
``w`` positions (``w`` hidden and varying) and picks the best item there;
the platform sees the pick and its payoff. Two regimes are covered:

* stochastic payoffs / arbitrary windows — confidence-interval elimination
  over rankings (:class:`EliminationRanker`);
* adversarial payoffs / i.i.d. windows — bandit linear optimization over
  admissible selection matrices (:class:`BLORanker`), plus an
  epsilon-greedy baseline.

Supporting pieces: the optimal-ranking family and regret accounting
(:mod:`rankbandit.core`), the selection-matrix polytope with decomposition
and feasibility tools (:mod:`rankbandit.polytope`), payoff/window models
and the episode loop (:mod:`rankbandit.environments`), delayed-feedback
wrappers and utility-order estimation (:mod:`rankbandit.extensions`), and
a reproducible experiment harness (:mod:`rankbandit.harness`).
"""

from .adversarial import (
    BLORanker, EpsilonGreedyRanker, MirrorDescent, ProjectionError, lazy_alpha,
    pivot_marginals,
)
from .core import (
    DegenerateInstanceError, Instance, OptimalFamily, Permutation, optimal_family,
    regret_upper_bound, selection_matrix, user_select,
)
from .elimination import (
    EliminationRanker, confidence_event_holds, count_inversions,
    find_permutation, inversion_budget,
)
from .environments import (
    GaussianPayoffs, MultinomialWindows, RegretTrace, ScheduleWindows,
    TapePayoffs, run_episode, substream,
)
from .extensions import (
    DelayModel, PartialOrderError, PooledDelayPolicy, QueuedDelayPolicy,
    SocialLearningReport, SortResult, estimate_order_sorting,
    estimate_social_learning,
)
from .harness import (
    ConfigError, ExperimentConfig, ExperimentReport, best_fixed_hindsight,
    run_experiment, run_replication,
)
from .polytope import (
    Decomposition, InadmissibleMatrixError, InfeasibleTargetError,
    admissibility_report, feasible_matrix, is_admissible,
    marginal_deficit, rfsm_decompose, window_suffix_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "BLORanker", "ConfigError", "Decomposition",
    "DegenerateInstanceError", "DelayModel", "EliminationRanker",
    "EpsilonGreedyRanker", "ExperimentConfig", "ExperimentReport",
    "GaussianPayoffs", "InadmissibleMatrixError", "InfeasibleTargetError",
    "Instance", "MirrorDescent", "MultinomialWindows",
    "OptimalFamily", "PartialOrderError", "Permutation", "PooledDelayPolicy",
    "ProjectionError", "QueuedDelayPolicy", "RegretTrace",
    "ScheduleWindows", "SocialLearningReport", "SortResult", "TapePayoffs",
    "admissibility_report", "best_fixed_hindsight",
    "confidence_event_holds", "count_inversions", "estimate_order_sorting",
    "estimate_social_learning", "feasible_matrix", "find_permutation",
    "inversion_budget", "is_admissible", "lazy_alpha", "marginal_deficit",
    "optimal_family", "pivot_marginals", "regret_upper_bound",
    "rfsm_decompose", "run_episode", "run_experiment", "run_replication",
    "selection_matrix", "substream", "user_select", "window_suffix_bounds",
]
