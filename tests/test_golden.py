"""Pinned traces: one short seed-0 experiment per policy, hashed array by array.

A change that moves any window, selection or payoff of these runs fails here.
Fast paths must reproduce the traces of the code they replace bit for bit, so
the hashes change only with a deliberate change of behaviour.
"""

import hashlib

import numpy as np
import pytest

from rankbandit.harness import ExperimentConfig, run_experiment

LAZY_Q = [0.35, 0.25, 0.2, 0.12, 0.08]

CONFIGS = {
    "elim": {
        "instance": {"utilities": [0.3, 1.2, 0.7, 2.0, 1.6, 0.1],
                     "means": [0.9, 0.2, 0.6, 0.4, 0.8, 0.5]},
        "window": {"type": "multinomial", "q": [0.3, 0.1, 0.2, 0.15, 0.15, 0.1]},
        "payoffs": {"type": "gaussian"},
        "policy": {"name": "elim", "delta": 0.05},
        "horizon": 3000,
    },
    # Bernoulli payoffs tie many empirical means, which moves the exploit ranking often
    "eps-greedy": {
        "instance": {"utilities": [0.5, 0.1, 0.9, 0.3, 0.7]},
        "window": {"type": "multinomial", "q": LAZY_Q},
        "payoffs": {"type": "bernoulli", "rates": [0.2, 0.6, 0.4, 0.7, 0.3]},
        "policy": {"name": "eps-greedy"},
        "horizon": 3000,
    },
    "osmd": {
        "instance": {"utilities": [0.5, 0.1, 0.9, 0.3, 0.7],
                     "means": [0.4, 0.8, 0.3, 0.6, 0.5]},
        "window": {"type": "multinomial", "q": LAZY_Q},
        "payoffs": {"type": "gaussian"},
        "policy": {"name": "osmd"},
        "horizon": 1000,
    },
}

# sha256 of the little-endian bytes of each trace column
GOLDEN = {
    "elim": {
        "windows": "670bee413cf4667605cd3e128aa1f0f64241bb2e527a53e669c94f0c056fe68b",
        "selected": "aae48629ff2185eb4a6b93d3ce80072790296d3d1a48b4ba8a48576ea8640df8",
        "payoffs": "79808117e0d8910531fe90976db0b8857e196be1505548c14b70e25492216884",
    },
    "eps-greedy": {
        "windows": "70f03b0a248a7e10ae11795b12adb4f93871ab50336b7a0cb684216eca67a4db",
        "selected": "e94d942b97f64d10461d70d43fb931db1d4cf8767657808d9c6d61ee2078f127",
        "payoffs": "793f881126e46e02e3d86ebafb6407aff15c40505744984e238f7398b381d956",
    },
    "osmd": {
        "windows": "99616f7868c8d3255dc691b877ba031c00cc1e37225373825a7d175fbd6a106e",
        "selected": "229365072b46afe78ae34cad87cf7a1d7ec96b495125086fe639f39ac4e26cee",
        "payoffs": "8871b5fbbf2679d5a66c17e89c9f8c48fe7822773dea7b756a7148607ee138d5",
    },
}


def _digest(values, dtype) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=dtype).tobytes()).hexdigest()


@pytest.mark.parametrize("policy", sorted(CONFIGS))
def test_trace_matches_pinned_hashes(policy):
    cfg = ExperimentConfig.from_dict({**CONFIGS[policy], "seed": 0, "replications": 1})
    (trace,) = run_experiment(cfg).traces
    got = {
        "windows": _digest(trace.windows, "<i8"),
        "selected": _digest(trace.selected, "<i8"),
        "payoffs": _digest(trace.payoffs, "<f8"),
    }
    assert got == GOLDEN[policy]
