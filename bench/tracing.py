"""Span tracing from outside the program, for the per-layer metrics.

The tracer replaces a public callable of ``rankbandit`` with a timing
wrapper at the place its callers look it up (a module global or a class
attribute), so nothing under ``src/`` changes. Each call records one span:
name, start, end, parent span, pass id and self time (duration minus the
time covered by child spans). Spans are kept in a flat in-memory array and
written out once, after the run.

A target that no longer exists (a later refactor removed or renamed it) is
skipped; its metrics then read 0.
"""

from __future__ import annotations

import importlib
import time
from array import array
from pathlib import Path

import numpy as np

# (layer metric prefix, module, attribute path) -- one entry per lookup site.
# A prefix listed twice is the same callable reached through two names.
TARGETS = (
    ("cli.main", "rankbandit.cli", "main"),
    ("harness.run_replication", "rankbandit.harness", "run_replication"),
    ("harness.best_fixed_hindsight", "rankbandit.harness", "best_fixed_hindsight"),
    ("harness.write_outputs", "rankbandit.harness", "write_outputs"),
    ("lp.solve_lp", "rankbandit.harness", "solve_lp"),
    ("environments.run_episode", "rankbandit.harness", "run_episode"),
    ("environments.windows.draw", "rankbandit.environments", "MultinomialWindows.draw"),
    ("environments.payoffs.draw", "rankbandit.environments", "GaussianPayoffs.draw"),
    ("environments.payoffs.draw", "rankbandit.environments", "TapePayoffs.draw"),
    ("core.user_select", "rankbandit.environments", "user_select"),
    ("core.user_select", "rankbandit.extensions", "user_select"),
    ("elimination.find_permutation", "rankbandit.elimination", "find_permutation"),
    ("adversarial.BLORanker.act", "rankbandit.adversarial", "BLORanker.act"),
    ("adversarial.BLORanker.feed", "rankbandit.adversarial", "BLORanker.feed"),
    ("adversarial.MirrorDescent.feed", "rankbandit.adversarial", "MirrorDescent.feed"),
    ("adversarial.EpsilonGreedyRanker.act", "rankbandit.adversarial",
     "EpsilonGreedyRanker.act"),
    ("polytope.feasible_matrix", "rankbandit.adversarial", "feasible_matrix"),
    ("polytope.feasible_matrix", "rankbandit.polytope", "feasible_matrix"),
    ("polytope.rfsm_decompose", "rankbandit.adversarial", "rfsm_decompose"),
    ("polytope.rfsm_decompose", "rankbandit.polytope", "rfsm_decompose"),
    ("polytope.Decomposition.sample", "rankbandit.polytope", "Decomposition.sample"),
    ("polytope.admissibility_report", "rankbandit.polytope", "admissibility_report"),
    ("extensions.QueuedDelayPolicy.act", "rankbandit.extensions", "QueuedDelayPolicy.act"),
    ("extensions.QueuedDelayPolicy.feed", "rankbandit.extensions", "QueuedDelayPolicy.feed"),
    ("extensions.PooledDelayPolicy.act", "rankbandit.extensions", "PooledDelayPolicy.act"),
    ("extensions.estimate_order_sorting", "rankbandit.harness", "estimate_order_sorting"),
)

# Callables whose every call is coarse (a handful per pass): calls, self_s and
# share only. The rest also get per-call self-time percentiles.
COARSE = ("cli.main", "harness.run_replication", "harness.best_fixed_hindsight",
          "harness.write_outputs", "lp.solve_lp", "environments.run_episode")
FINE = tuple(dict.fromkeys(p for p, _, _ in TARGETS if p not in COARSE))

# Counters read off arguments or results at a span's end. Each is summed (or
# maxed) per pass and must repeat exactly from pass to pass.
COUNTERS = {
    "polytope.rfsm_decompose.rankings.sum": "sum",
    "polytope.rfsm_decompose.rankings.max": "max",
    "extensions.QueuedDelayPolicy.backlog.max": "max",
    "extensions.PooledDelayPolicy.pool_size": "max",
    "extensions.estimate_order_sorting.trials": "sum",
    "harness.write_outputs.bytes": "sum",
    "environments.run_episode.trials": "sum",
}

# Callables whose arguments or results feed the counters above.
OBSERVED = ("polytope.rfsm_decompose", "extensions.QueuedDelayPolicy.act",
            "extensions.QueuedDelayPolicy.feed", "extensions.PooledDelayPolicy.act",
            "extensions.estimate_order_sorting", "harness.write_outputs",
            "environments.run_episode")

_FIELDS = 6  # name id, start ns, end ns, parent span, pass id, self ns


def _resolve(module_name: str, attr_path: str):
    """(owner, attribute name, original) or None when the target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = attr_path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


class Tracer:
    """Installs timing wrappers, records spans and per-pass counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")
        self._stack: list[list[int]] = []  # [span index, child ns]
        self.pass_id = 0
        self.counters: dict[int, dict[str, int]] = {}
        self._installed: list[tuple[object, str, object]] = []

    # -- counters -----------------------------------------------------------
    def _count(self, key: str, value: int) -> None:
        per_pass = self.counters.setdefault(self.pass_id, {})
        if COUNTERS[key] == "max":
            per_pass[key] = max(per_pass.get(key, 0), int(value))
        else:
            per_pass[key] = per_pass.get(key, 0) + int(value)

    def _observe(self, prefix: str, args, kwargs, result) -> None:
        if prefix == "polytope.rfsm_decompose":
            self._count("polytope.rfsm_decompose.rankings.sum", len(result.weights))
            self._count("polytope.rfsm_decompose.rankings.max", len(result.weights))
        elif prefix.startswith("extensions.QueuedDelayPolicy."):
            self._count("extensions.QueuedDelayPolicy.backlog.max", args[0].backlog)
        elif prefix == "extensions.PooledDelayPolicy.act":
            self._count("extensions.PooledDelayPolicy.pool_size", args[0].pool_size)
        elif prefix == "extensions.estimate_order_sorting":
            self._count("extensions.estimate_order_sorting.trials", result.trials)
        elif prefix == "harness.write_outputs":
            out = args[1] if len(args) > 1 else kwargs["output_dir"]
            self._count("harness.write_outputs.bytes", _dir_bytes(out))
        elif prefix == "environments.run_episode":
            horizon = args[4] if len(args) > 4 else kwargs["horizon"]
            self._count("environments.run_episode.trials", horizon)

    # -- wrappers -----------------------------------------------------------
    def _wrap(self, prefix: str, fn):
        nid = self._ids.setdefault(prefix, len(self._ids))
        if nid == len(self.names):
            self.names.append(prefix)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        observe = self._observe if prefix in OBSERVED else None

        def traced(*args, **kwargs):
            index = len(spans) // _FIELDS
            parent = stack[-1][0] if stack else -1
            frame = [index, 0]
            spans.extend((nid, 0, 0, parent, self.pass_id, 0))
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                base = index * _FIELDS
                spans[base + 1] = start
                spans[base + 2] = end
                spans[base + 5] = duration - frame[1]
            if observe is not None:
                observe(prefix, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for prefix, module_name, attr_path in TARGETS:
            found = _resolve(module_name, attr_path)
            if found is None:
                continue
            owner, attr, original = found
            setattr(owner, attr, self._wrap(prefix, original))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------
    def table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, _FIELDS)

    def save(self, path) -> None:
        np.savez_compressed(path, spans=self.table(), names=np.asarray(self.names),
                            fields=np.asarray(["name", "start_ns", "end_ns", "parent",
                                               "pass", "self_ns"]))

    def pass_counts(self, pass_ids) -> dict[int, dict[str, int]]:
        """Per pass: call count of every callable and every counter."""
        spans = self.table()
        out = {}
        for pid in pass_ids:
            rows = spans[spans[:, 4] == pid]
            ids = np.bincount(rows[:, 0], minlength=len(self.names))
            counts = {f"{name}.calls": int(ids[i]) for i, name in enumerate(self.names)}
            counts.update(self.counters.get(pid, {}))
            out[pid] = counts
        return out

    def layer_metrics(self, pass_ids, pass_wall_s: float) -> dict[str, float]:
        """Every per-layer metric over the given traced passes; counts and
        counters are per pass, percentiles over all calls."""
        spans = self.table()
        spans = spans[np.isin(spans[:, 4], list(pass_ids))]
        npass = len(pass_ids)
        counts = self.pass_counts(pass_ids)
        first = counts[pass_ids[0]] if pass_ids else {}
        out: dict[str, float] = {}
        for prefix in COARSE + FINE:
            nid = self._ids.get(prefix)
            self_ns = spans[spans[:, 0] == nid, 5] if nid is not None else spans[:0, 5]
            out[f"{prefix}.calls"] = self_ns.size / npass
            out[f"{prefix}.self_s"] = float(self_ns.sum()) / 1e9 / npass
            out[f"{prefix}.share"] = float(self_ns.sum()) / 1e9 / pass_wall_s
            if prefix in FINE:
                p50, p99 = (np.percentile(self_ns / 1e3, [50, 99]) if self_ns.size
                            else (0.0, 0.0))
                out[f"{prefix}.self_us.p50"] = float(p50)
                out[f"{prefix}.self_us.p99"] = float(p99)
        trials = first.get("environments.run_episode.trials", 0)
        out["environments.run_episode.self_us_per_trial"] = (
            out["environments.run_episode.self_s"] * 1e6 / trials if trials else 0.0)
        calls = out["polytope.rfsm_decompose.calls"]
        out["polytope.rfsm_decompose.rankings.mean"] = (
            first.get("polytope.rfsm_decompose.rankings.sum", 0) / calls if calls else 0.0)
        for key in ("polytope.rfsm_decompose.rankings.max",
                    "extensions.QueuedDelayPolicy.backlog.max",
                    "extensions.PooledDelayPolicy.pool_size",
                    "extensions.estimate_order_sorting.trials",
                    "harness.write_outputs.bytes"):
            out[key] = float(first.get(key, 0))
        return out
