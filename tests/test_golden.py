"""Pinned traces: short seed-0 experiments, hashed array by array.

A change that moves any window, selection, payoff or regret of these runs
fails here. Fast paths must reproduce the traces of the code they replace
bit for bit, so the hashes change only with a deliberate change of
behaviour. Beyond one run per policy, the configs cover each way a trace is
put together and scored: burn-ins (sort and social), delay wrappers,
several replications, tapes (Bernoulli and file), schedule and block
windows, and an episode with changing utilities.
"""

import hashlib

import numpy as np
import pytest

from conftest import utility_sequence_episode
from rankbandit.elimination import EliminationRanker
from rankbandit.environments import GaussianPayoffs, MultinomialWindows
from rankbandit.harness import ExperimentConfig, run_experiment

LAZY_Q = [0.35, 0.25, 0.2, 0.12, 0.08]
SCHEDULE = [1, 3, 2, 4, 4, 1, 2, 3] * 100

# one file tape for the "npy-tape" config; the path is filled in per test
TAPE_PATH = "<tape.npy>"


def tape_values() -> np.ndarray:
    return np.random.default_rng(5).random((5, 600))


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
    "sort-bold-uniform": {
        "instance": {"utilities": [0.5, 0.1, 0.9, 0.3, 0.7],
                     "means": [0.4, 0.8, 0.3, 0.6, 0.5]},
        "window": {"type": "multinomial", "q": LAZY_Q},
        "payoffs": {"type": "gaussian"},
        "policy": {"name": "elim", "delta": 0.05, "delay_wrapper": "bold"},
        "delay": "uniform:0..3",
        "estimate": "sort",
        "horizon": 1500,
    },
    "queued-fixed-3reps": {
        "instance": {"utilities": [0.5, 0.1, 0.9, 0.3, 0.7],
                     "means": [0.4, 0.8, 0.3, 0.6, 0.5]},
        "window": {"type": "multinomial", "q": LAZY_Q},
        "payoffs": {"type": "gaussian"},
        "policy": {"name": "eps-greedy"},
        "delay": "fixed:3",
        "horizon": 800,
        "replications": 3,
    },
    "bernoulli-sort": {
        "instance": {"utilities": [0.5, 0.1, 0.9, 0.3, 0.7]},
        "window": {"type": "multinomial", "q": LAZY_Q},
        "payoffs": {"type": "bernoulli", "rates": [0.2, 0.6, 0.4, 0.7, 0.3]},
        "policy": {"name": "elim"},
        "estimate": "sort",
        "horizon": 1500,
    },
    "social": {
        "instance": {"utilities": [1.0, 5.0, 9.0], "means": [1.0, 3.0, 2.0]},
        "window": {"type": "multinomial", "q": [0.5, 0.3, 0.2]},
        "payoffs": {"type": "gaussian"},
        "policy": {"name": "elim", "delta": 0.05},
        "estimate": "social",
        "estimate_budget": 3000,
        "horizon": 4000,
    },
    "schedule": {
        "instance": {"utilities": [2.0, 0.5, 1.5, 1.0], "means": [0.2, 0.9, 0.4, 0.6]},
        "window": {"type": "schedule", "schedule": SCHEDULE},
        "payoffs": {"type": "gaussian"},
        "policy": {"name": "elim", "delta": 0.05},
        "horizon": 800,
    },
    "blocks-sort": {
        "instance": {"utilities": [2.0, 0.5, 1.5, 1.0], "means": [0.2, 0.9, 0.4, 0.6]},
        "window": {"type": "blocks"},
        "payoffs": {"type": "gaussian"},
        "policy": {"name": "elim", "delta": 0.05},
        "estimate": "sort",
        "horizon": 800,
    },
    "npy-tape": {
        "instance": {"utilities": [0.5, 0.1, 0.9, 0.3, 0.7]},
        "window": {"type": "multinomial", "q": LAZY_Q},
        "payoffs": {"type": "tape", "path": TAPE_PATH},
        "policy": {"name": "osmd"},
        "horizon": 500,
    },
    "bernoulli-schedule": {
        "instance": {"utilities": [2.0, 0.5, 1.5, 1.0]},
        "window": {"type": "schedule", "schedule": SCHEDULE},
        "payoffs": {"type": "bernoulli", "rates": [0.3, 0.7, 0.5, 0.2]},
        "policy": {"name": "elim", "delta": 0.05},
        "horizon": 800,
    },
    # a zero payoff feeds the mirror step an exact zero loss, which neither
    # Gaussian nor uniform tape payoffs ever do
    "osmd-bernoulli": {
        "instance": {"utilities": [3.0, 11.0, 7.0, 1.0, 12.0, 5.0,
                                   9.0, 2.0, 10.0, 6.0, 4.0, 8.0]},
        "window": {"type": "multinomial",
                   "q": [0.22, 0.16, 0.13, 0.11, 0.09, 0.08,
                         0.06, 0.05, 0.04, 0.03, 0.02, 0.01]},
        "payoffs": {"type": "bernoulli",
                    "rates": [0.5, 0.1, 0.8, 0.3, 0.9, 0.2,
                              0.6, 0.4, 0.7, 0.15, 0.85, 0.45]},
        "policy": {"name": "osmd"},
        "horizon": 1000,
    },
}

# sha256 of the little-endian bytes of each trace column, the replications
# of a config concatenated in order
GOLDEN = {
    "elim": {
        "windows": "670bee413cf4667605cd3e128aa1f0f64241bb2e527a53e669c94f0c056fe68b",
        "selected": "aae48629ff2185eb4a6b93d3ce80072790296d3d1a48b4ba8a48576ea8640df8",
        "payoffs": "79808117e0d8910531fe90976db0b8857e196be1505548c14b70e25492216884",
        "inst_regret": "b883e09c282f71e8ab2c994aa7519de68db70cc35e5474b893bdcc3dc1adbee4",
        "cum_regret": "e9a14a9b195e6a153b799c681d2ca3d602e2783572e16494b6575b7dbd524851",
    },
    "eps-greedy": {
        "windows": "70f03b0a248a7e10ae11795b12adb4f93871ab50336b7a0cb684216eca67a4db",
        "selected": "e94d942b97f64d10461d70d43fb931db1d4cf8767657808d9c6d61ee2078f127",
        "payoffs": "793f881126e46e02e3d86ebafb6407aff15c40505744984e238f7398b381d956",
        "inst_regret": "28f73acc004260eb117cb528ebf590389ecc11dc00422d1873365fe4a936b17a",
        "cum_regret": "d76c33579de146073c4a6d744d8b0e061218e56856529cddd76c30da9cf53b90",
    },
    "osmd": {
        "windows": "99616f7868c8d3255dc691b877ba031c00cc1e37225373825a7d175fbd6a106e",
        "selected": "229365072b46afe78ae34cad87cf7a1d7ec96b495125086fe639f39ac4e26cee",
        "payoffs": "8871b5fbbf2679d5a66c17e89c9f8c48fe7822773dea7b756a7148607ee138d5",
        "inst_regret": "d4c0410baf7bc4c03c56feb86f41f6295323ca5e77c2261285bc8ebf1ba704d9",
        "cum_regret": "122f07c55a989b10c77ca91d7cd5db99cb21e394f1d798b95efb80b78b15adf4",
    },
    "sort-bold-uniform": {
        "windows": "b0d6a728650856c954da4911f235ac8d91f190dd4d5ad865fcf1ca336cbb9e8d",
        "selected": "4a1b0f6e62c62e7219dfc9b20a8a05a77a71734dbf30cf18c0c47cda0fcf0525",
        "payoffs": "c2ec311155971569ced6a7b5ed65761e3db3da42abeb19f3979ce3d8e25d098d",
        "inst_regret": "0de63d151a23e38dc3273a0d66b1189885ba16c822ef551ebd460bbf8a3cc13a",
        "cum_regret": "ad4da140c2359ae2734da346551e53ca7ee58eeb93d8b3b4481825c9a6eee39a",
    },
    "queued-fixed-3reps": {
        "windows": "1e24a2c0ed7d76ee4771b278cc1989f880f2a4218a743bef70201ec3b408d64d",
        "selected": "68c538d1e589c74121c581bdcecf9f8c0e98f196efa73830f42c1d8ee4ea8d89",
        "payoffs": "b5fcc7cc28c626eefd1e71ad47c159676aec46b8a1deb21206adeb0eaf8d9888",
        "inst_regret": "4ca19b4f109c3f5ea25c5b191bf9b7de2461bf2d4844085b2823196feae2f4e8",
        "cum_regret": "162b22b78b199db5b75df0581f86f4cc4730da65f99a494118d79e36a0a77eba",
    },
    "bernoulli-sort": {
        "windows": "b0d6a728650856c954da4911f235ac8d91f190dd4d5ad865fcf1ca336cbb9e8d",
        "selected": "0c149a77f86de057d94d515b10d583b788205ecde61287153da6626a7c20bd8d",
        "payoffs": "18bb8429c138974c8c6ef0e0024a4e4ba9f10931ebed6efc6be25662e06872e2",
        "inst_regret": "31c0d5ec4b6027a4ef8a3238a578ded0628ea9c58c3e1ee2c2f815557a465be1",
        "cum_regret": "d02d31b7dc88e5707abd57470f50b5f5bb42d429bfe9802abab29abc312bc300",
    },
    "social": {
        "windows": "b2bdfc0c1d934bb2774a0fe9af707cf18caf5a105b45a70780663de969a04f7b",
        "selected": "63c54aa450cb7862c0d9cf228a94297dd088ff7c953d2c12954cd7459136d1dc",
        "payoffs": "206d35f75e45011922b6567fe363a9f4f78b0763547ae35c0aa38f767f48124e",
        "inst_regret": "c1eb7724653e88b19d1d9f77cdad8c3eb087ed97ec701753f6376dd56b148dfe",
        "cum_regret": "5b99561c1558c958390990737cbc35c419be37ad7902ee0bfeb690c8a869b4a8",
    },
    "schedule": {
        "windows": "5be8b005ad179be4030b8b592a0ebabad78242231caf9b40f1d8b7d0d4a3a198",
        "selected": "304d9a844f39ae59cacbd018ad173e20e9739b1dd080333d4acb40a7cefebc42",
        "payoffs": "7ca031bad858635d4d555057e92b847b486ef228c92a1c06bac160018475a611",
        "inst_regret": "3274ae1712c53deddb4dfbae70c3fbd28976017a10258379663a93cd34cb01a9",
        "cum_regret": "e2588af5163bed4697e0331b15455beb186a0e4a5783ba5754090ec272cdb5b5",
    },
    "blocks-sort": {
        "windows": "b191c57efd4845f4a96368a6d87910fdc7c12694dc280260f66f006c870ba176",
        "selected": "2101521b48a93bcec153288633b132a89c05d835a653cba144aff0ae6e36d0b7",
        "payoffs": "f60068e28b7f043f9c9853ad6f0e24b5319a0a98ef71c6f6c1476d5939b6e077",
        "inst_regret": "a4bbf497b43dbb3ce03fe2d2f826166b36c578bfb394ab4608089d7c645cff18",
        "cum_regret": "e41beb3bb4774d90a50c5c8248e756ababb26ee0d05ac86d5883311a063a00d7",
    },
    "npy-tape": {
        "windows": "dbfb7e4d062147923d45fb75db2eea0cae3876e1d8d5528aeea8f702eca10b07",
        "selected": "ef99576a39e0804b152671e6c7b1e82e667ecdd8d0eb250a7cf138bdd445e665",
        "payoffs": "0e037fde3b40fc493fb5091da30df5821601b746157b3b073d2c71b2a91033e4",
        "inst_regret": "57e24ae0b25b2e8bd611a4260502ee6ec878a1b6c63c650b6821a3d1eb47d83d",
        "cum_regret": "6a92b2e20cb8d09fb3cdf3b50703894235c50835b70f256852c485b25ea6b524",
    },
    "bernoulli-schedule": {
        "windows": "5be8b005ad179be4030b8b592a0ebabad78242231caf9b40f1d8b7d0d4a3a198",
        "selected": "304d9a844f39ae59cacbd018ad173e20e9739b1dd080333d4acb40a7cefebc42",
        "payoffs": "0f972ba9afa831e647f945fac910e052948f7a8b0635f5f0796072f1ea80dd93",
        "inst_regret": "56a43ef88ddfcd0f56f7dd973312c0e73d62f59655c01d7b4e59aaa3be8b3fb6",
        "cum_regret": "56a43ef88ddfcd0f56f7dd973312c0e73d62f59655c01d7b4e59aaa3be8b3fb6",
    },
    "osmd-bernoulli": {
        "windows": "cd1b07726ef17250550dd315b577009b6817b66570d52096410d72d819381bf0",
        "selected": "ffe7181b89664d90df69eee23a756172181b8fcc6b4c7aaef84beb91f79c9761",
        "payoffs": "5f82239f3e0ae7850a44e905535121cc1d047cda27a8579f968195042d7c7536",
        "inst_regret": "1bdd9edbe05b74c6da55757950a5b9656d4ac63d6defff992da39b73fe738f54",
        "cum_regret": "b59ff865df7edb906c4150577e0f6b54f3cff46c8e2c915e02cb4be8c7ea848a",
    },
}

GOLDEN_CHANGING_UTILITIES = {
    "windows": "8ea45b0cb93bf3c8a2a3504e7695871f145a03f25b63374ead289684b18e57f0",
    "selected": "6786e5dbef6a4ea233770f6afcdb0f5b62dc524cabe5d62e5bba5c2a6039b16d",
    "payoffs": "2e1347576217a2ee166ef7ebf8cdda070e12517115882f7643f4006fd2ec229e",
    "inst_regret": "f030ae326c959a9036ce1c8c1d0b4271039331d296a137e14be33d2b7c20dc17",
    "cum_regret": "9f7a657b116ca79b5556148d8cfd2ff026b4b4e0afcef1cfc8e23cc1a32d3507",
    "orders": "d1a4de40bcf2fc13debb8e613888745573f01d648f5f6a9401d53be0f02173c6",
}

COLUMNS = {"windows": "<i8", "selected": "<i8", "payoffs": "<f8",
           "inst_regret": "<f8", "cum_regret": "<f8"}


def _digest(values, dtype) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=dtype).tobytes()).hexdigest()


def run_config(name, tmp_path):
    raw = {"seed": 0, "replications": 1, **CONFIGS[name]}
    if raw["payoffs"].get("path") == TAPE_PATH:
        path = tmp_path / "tape.npy"
        np.save(path, tape_values())
        raw["payoffs"] = {**raw["payoffs"], "path": str(path)}
    return run_experiment(ExperimentConfig.from_dict(raw)).traces


def trace_digests(traces) -> dict:
    return {col: _digest(np.concatenate([getattr(t, col) for t in traces]), dtype)
            for col, dtype in COLUMNS.items()}


@pytest.mark.parametrize("policy", sorted(CONFIGS))
def test_trace_matches_pinned_hashes(policy, tmp_path):
    assert trace_digests(run_config(policy, tmp_path)) == GOLDEN[policy]


def changing_utilities_episode():
    """Elimination on a utility schedule that cycles through three orders:
    ``(trace, orders)``."""
    rows = np.array([[1.0, 2.0, 3.0, 4.0], [4.0, 1.0, 3.0, 2.0], [2.0, 4.0, 1.0, 3.0]])
    seq = rows[np.random.default_rng(3).integers(0, 3, size=600)]
    means = [0.2, 0.9, 0.5, 0.7]
    return utility_sequence_episode(EliminationRanker(4, 0.05), seq, means,
                                    GaussianPayoffs(means, seed=9),
                                    MultinomialWindows([0.4, 0.3, 0.2, 0.1], seed=9))


def test_changing_utilities_episode_matches_pinned_hashes():
    trace, orders = changing_utilities_episode()
    got = {**trace_digests([trace]), "orders": _digest(orders, "<i2")}
    assert got == GOLDEN_CHANGING_UTILITIES
