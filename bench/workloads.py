"""Benchmark workloads: input generation, one timed pass, and output checks.

A workload turns the benchmark seed into inputs for the program (an
experiment config file, or a stack of matrices) and runs one *pass* over
them: one ``rankbandit run`` through the CLI entry point, or one sweep of
the polytope tools over every matrix. An *op* is one trial of an
experiment, or one matrix. After each pass the outputs are checked with
numpy only, and every op that a failed check covers counts as failed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Root seed of the pinned pass whose fingerprint is stored in fingerprints.json.
PINNED_SEED = 0

REL_TOL = 1e-9

# Seed of the pinned utility order of every experiment workload.
UTILITY_SEED = 2402


def zipf_lazy_q(n: int) -> list[float]:
    """Lazy window distribution q_w proportional to 1/w."""
    q = 1.0 / np.arange(1, n + 1)
    return (q / q.sum()).tolist()


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


@dataclass
class PassResult:
    """What one pass produced, kept for the checks after the timed region."""

    ops: int
    payload: object = None
    failures: list[str] = field(default_factory=list)
    failed_ops: int = 0


@dataclass(frozen=True)
class Experiment:
    """An experiment config run through ``rankbandit run``."""

    n: int
    horizon: int
    replications: int
    policy: dict
    payoffs: str  # "gaussian" or "bernoulli" (a Bernoulli tape)
    delay: str = "none"
    estimate: str | None = None
    write_outputs: bool = False
    # Configs per pass, each with its own permutation of the means (or rates)
    # and its own root seed. The work of a run depends on the permutation, so
    # a pass averages over several where that spread is wide.
    configs: int = 1

    def config(self, seed: int, output_dir: Path) -> dict:
        # The utilities are pinned and the seed permutes the means (or rates).
        # With seed-permuted utilities the sort burn-in compares other pairs
        # on every seed, and its length (1600-3500 trials at n=50) swung the
        # work per pass by a quarter.
        n = self.n
        utilities = np.random.default_rng(UTILITY_SEED).permutation(n) + 1.0
        lo, hi = (0.1, 0.9) if self.payoffs == "bernoulli" else (0.0, 1.0)
        values = np.random.default_rng([seed, 7919]).permutation(np.linspace(lo, hi, n))
        raw = {
            "label": "bench",
            "instance": {"utilities": utilities.tolist()},
            "window": {"type": "multinomial", "q": zipf_lazy_q(n)},
            "policy": dict(self.policy),
            "horizon": self.horizon,
            "replications": self.replications,
            "seed": seed,
            "delay": self.delay,
            "estimate": self.estimate,
        }
        if self.payoffs == "bernoulli":
            raw["payoffs"] = {"type": "bernoulli", "rates": values.tolist()}
        else:
            raw["instance"]["means"] = values.tolist()
            raw["payoffs"] = {"type": "gaussian"}
        if self.write_outputs:
            raw["output_dir"] = str(output_dir)
        return raw

    def prepare(self, seed: int, workdir: Path) -> "ExperimentBatch":
        workdir.mkdir(parents=True, exist_ok=True)
        parts = []
        for k in range(self.configs):
            raw = self.config(seed * self.configs + k, workdir / f"out{k}")
            path = workdir / f"config{k}.json"
            path.write_text(json.dumps(raw, indent=1))
            parts.append(ExperimentInputs(self, raw, path))
        return ExperimentBatch(parts)


class ExperimentBatch:
    """The configs of a pass, run one after another."""

    def __init__(self, parts: list["ExperimentInputs"]):
        self.parts = parts
        self.paths = [part.path for part in parts]
        self.ops_per_pass = sum(part.ops_per_pass for part in parts)

    def run_pass(self, rankbandit, pause=lambda: None) -> PassResult:
        """``pause()`` runs between two configs, and its time is not counted."""
        results = []
        for k, part in enumerate(self.parts):
            if k:
                pause()
            results.append(part.run_pass(rankbandit))
        return PassResult(ops=self.ops_per_pass, payload=results)

    def check(self, result: PassResult, rankbandit) -> None:
        for part, sub in zip(self.parts, result.payload):
            part.check(sub, rankbandit)
            result.failures.extend(sub.failures)
            result.failed_ops += sub.failed_ops

    def fingerprint(self, result: PassResult) -> dict:
        """Hashes over the traces of every config in order; one value per
        replication of every config."""
        ints = hashlib.sha256()
        bits = hashlib.sha256()
        out: dict = {"final_regret": []}
        for sub in result.payload:
            report = sub.payload[2]
            for trace in report.traces:
                ints.update(trace.windows.astype("<i8").tobytes())
                ints.update(trace.selected.astype("<i8").tobytes())
                bits.update(trace.payoffs.astype("<f8").tobytes())
            out["final_regret"] += [s["final_regret"] for s in report.per_replication]
            if self.parts[0].spec.payoffs == "bernoulli":
                out.setdefault("hindsight_value", []).extend(
                    s["hindsight_value"] for s in report.per_replication)
        return {"trace_sha256": ints.hexdigest(), "payoff_sha256": bits.hexdigest(), **out}


class ExperimentInputs:
    """One config of an experiment workload."""

    def __init__(self, spec: Experiment, raw: dict, path: Path):
        self.spec = spec
        self.raw = raw
        self.path = path
        self.ops_per_pass = spec.horizon * spec.replications

    def run_pass(self, rankbandit) -> PassResult:
        """One ``rankbandit run`` call. The report is caught where the CLI
        calls into the harness, so the checks see the traces themselves."""
        cli = rankbandit.cli
        reports = []
        inner = cli.run_experiment

        def capture(cfg, workers=None):
            report = inner(cfg, workers=workers)
            reports.append(report)
            return report

        cli.run_experiment = capture
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(["run", str(self.path), "--workers", "1"])
        finally:
            cli.run_experiment = inner
        return PassResult(ops=self.ops_per_pass,
                          payload=(code, out.getvalue(), reports[0] if reports else None))

    def check(self, result: PassResult, rankbandit) -> None:
        code, stdout, report = result.payload
        if code != 0 or "final regret:" not in stdout or report is None:
            result.failures.append(f"cli exit {code}, report captured: {report is not None}")
            result.failed_ops = result.ops
            return
        spec = self.spec
        if len(report.traces) != spec.replications or \
                len(report.per_replication) != spec.replications:
            result.failures.append("replication count differs from the config")
            result.failed_ops = result.ops
            return
        for rep, (summary, trace) in enumerate(zip(report.per_replication, report.traces)):
            problems = self._check_replication(rep, summary, trace, rankbandit)
            if problems:
                result.failures.extend(f"rep {rep}: {p}" for p in problems)
                result.failed_ops += spec.horizon
        if spec.write_outputs:
            problems = self._check_outputs(report)
            if problems:
                result.failures.extend(problems)
                result.failed_ops = result.ops

    def _check_replication(self, rep, summary, trace, rankbandit) -> list[str]:
        spec = self.spec
        n, horizon = spec.n, spec.horizon
        problems = []
        if len(trace) != horizon or not np.array_equal(
                trace.trials, np.arange(1, horizon + 1)):
            return [f"trace has {len(trace)} trials, expected {horizon}"]
        w, y = trace.windows, trace.selected
        if w.min() < 1 or w.max() > n:
            problems.append("window outside 1..n")
        if y.min() < 0 or y.max() > n - 1:
            problems.append("pick outside 0..n-1")
        if not np.allclose(trace.cum_regret, np.cumsum(trace.inst_regret),
                           rtol=REL_TOL, atol=REL_TOL):
            problems.append("cum_regret != cumsum(inst_regret)")
        if not _close(summary["total_payoff"], float(trace.payoffs.sum())):
            problems.append("total_payoff != sum of payoffs")
        if not _close(summary["final_regret"], float(trace.cum_regret[-1])):
            problems.append("final_regret != last cum_regret")
        if spec.payoffs == "gaussian":
            # the optimal family is optimal for every window at once
            if trace.inst_regret.min() < -1e-12:
                problems.append("negative pseudo-regret")
        else:
            problems.extend(self._check_tape(rep, summary, trace, rankbandit))
        if spec.estimate is not None and not 0 < summary["burn_in_trials"] < horizon:
            problems.append(f"burn-in used {summary['burn_in_trials']} trials")
        return problems

    def _check_tape(self, rep, summary, trace, rankbandit) -> list[str]:
        raw = self.raw
        q = np.asarray(raw["window"]["q"])
        tape = rankbandit.TapePayoffs.bernoulli(
            np.asarray(raw["payoffs"]["rates"]), self.spec.horizon, raw["seed"], rep).values
        problems = []
        if not np.array_equal(trace.payoffs, tape[trace.selected, trace.trials - 1]):
            problems.append("payoffs differ from the regenerated tape")
        # best fixed value in hindsight, closed form: sum_c q[c] * max_{a>=c} R[a]
        # with R the tape total of the item of utility rank a
        by_rank = np.argsort(np.asarray(raw["instance"]["utilities"]), kind="stable")
        totals = tape.sum(axis=1)[by_rank]
        closed = float(q @ np.maximum.accumulate(totals[::-1])[::-1])
        if not _close(summary.get("hindsight_value", math.nan), closed):
            problems.append(f"hindsight_value {summary.get('hindsight_value')} != {closed}")
        elif not _close(summary["final_regret"], closed - summary["total_payoff"]):
            problems.append("final_regret != hindsight_value - total_payoff")
        return problems

    def _check_outputs(self, report) -> list[str]:
        out = Path(self.raw["output_dir"])
        problems = []
        on_disk = json.loads((out / "report.json").read_text())
        if on_disk["per_replication"] != json.loads(json.dumps(report.per_replication)):
            problems.append("report.json differs from the in-memory report")
        with open(out / "summary.csv", newline="") as fh:
            if len(list(csv.reader(fh))) != self.spec.replications + 1:
                problems.append("summary.csv row count")
        for rep, trace in enumerate(report.traces):
            with open(out / "traces" / f"rep{rep:04d}.csv", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            cols = np.asarray(rows, dtype=float).T if rows else np.zeros((6, 0))
            if cols.shape[1] != len(trace) or not (
                    np.array_equal(cols[1], trace.windows)
                    and np.array_equal(cols[2], trace.selected)
                    and np.array_equal(cols[3], trace.payoffs)
                    and np.array_equal(cols[5], trace.cum_regret)):
                problems.append(f"traces/rep{rep:04d}.csv differs from the trace")
        return problems


def fingerprint_mismatch(got: dict, want: dict) -> list[str]:
    """Hashes must match bitwise, regret and hindsight values within REL_TOL."""
    problems = [f"{key} differs" for key in ("trace_sha256", "payoff_sha256")
                if got.get(key) != want.get(key)]
    for key in ("final_regret", "hindsight_value"):
        a, b = got.get(key, []), want.get(key, [])
        if len(a) != len(b) or not all(_close(x, y) for x, y in zip(a, b)):
            problems.append(f"{key} {a} != pinned {b}")
    return problems


@dataclass(frozen=True)
class PolytopeDense:
    """Admissible matrices checked, decomposed and re-coupled by the polytope tools."""

    n: int
    matrices: int
    mixture: int

    def prepare(self, seed: int, workdir: Path) -> "PolytopeInputs":
        workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, 104729])
        n = self.n
        stack = np.zeros((self.matrices, n, n))
        cols = np.arange(n)
        for m in range(self.matrices):
            weights = rng.dirichlet(np.ones(self.mixture))
            for w in weights:
                # window c+1 picks the highest rank among the first c+1 positions
                picks = np.maximum.accumulate(rng.permutation(n))
                stack[m, picks, cols] += w
        path = workdir / "matrices.npy"
        np.save(path, stack)
        return PolytopeInputs(np.load(path), np.asarray(zipf_lazy_q(n)), path)


def _admissible(P: np.ndarray, atol: float = 1e-9) -> bool:
    """C.1-C.4, written out independently of the library's checker."""
    suffix = np.cumsum(P[::-1], axis=0)[::-1]  # suffix[j, c] = sum(P[j:, c])
    return bool(np.all(P >= -atol) and np.all(P <= 1 + atol)
                and np.allclose(P.sum(axis=0), 1.0, atol=atol)
                and np.all(np.abs(np.triu(P, 1)) <= atol)
                and np.all(np.diff(suffix[1:], axis=1) >= -atol))


# Matrices between two reference-kernel pauses (about 0.3 s of work), so the
# host speed is sampled within a pass as well as around it.
PAUSE_EVERY = 10


class PolytopeInputs:
    def __init__(self, stack: np.ndarray, q: np.ndarray, path: Path):
        self.stack = stack
        self.q = q
        self.paths = [path]
        self.ops_per_pass = stack.shape[0]

    def run_pass(self, rankbandit, pause=lambda: None) -> PassResult:
        """Every matrix through the polytope tools; ``pause()`` runs after
        every PAUSE_EVERY matrices but the last, and its time is not counted."""
        polytope = rankbandit.polytope
        q = self.q
        out = []
        for m, M in enumerate(self.stack):
            if m and m % PAUSE_EVERY == 0:
                pause()
            report = polytope.admissibility_report(M)
            decomposition = polytope.rfsm_decompose(M)
            coupling = polytope.feasible_matrix(M @ q, q)
            out.append((report.ok, decomposition, coupling))
        return PassResult(ops=self.ops_per_pass, payload=out)

    def check(self, result: PassResult, rankbandit) -> None:
        n = self.stack.shape[1]
        for m, (M, (ok, decomposition, coupling)) in enumerate(zip(self.stack, result.payload)):
            problems = []
            if not ok:
                problems.append("reported inadmissible")
            weights = np.asarray(decomposition.weights)
            if np.any(weights <= 0) or not _close(float(weights.sum()), 1.0):
                problems.append("weights not a probability vector")
            if np.max(np.abs(decomposition.matrix() - M)) > 1e-9:
                problems.append("decomposition does not reproduce the matrix")
            if len(weights) > np.count_nonzero(M) - n + 1:
                problems.append(f"{len(weights)} rankings > z - n + 1")
            if not _admissible(coupling):
                problems.append("coupling matrix inadmissible")
            if np.max(np.abs(coupling @ self.q - M @ self.q)) > 1e-8:
                problems.append("coupling misses P q = p")
            if problems:
                result.failures.extend(f"matrix {m}: {p}" for p in problems)
                result.failed_ops += 1

    def fingerprint(self, result: PassResult) -> dict:
        # rankings peeled per matrix: a deterministic function of the inputs
        return {"rankings": [len(d.weights) for _, d, _ in result.payload]}


# Passes take 0.3-2.3 s on a 2-vCPU Xeon VM, so a run holds 10-80 of them, and
# the reference kernel runs at least every 2 s of a pass. adversarial-osmd
# runs two rate permutations per pass: its work per trial and its LP pivots
# depend on the permutation. stochastic-elim's sort burn-in takes 1500-2300
# of its 5000 trials.
WORKLOADS = {
    "adversarial-osmd": Experiment(
        n=20, horizon=1000, replications=1, policy={"name": "osmd"}, payoffs="bernoulli",
        configs=2),
    "stochastic-elim": Experiment(
        n=50, horizon=5000, replications=1,
        policy={"name": "elim", "delta": 0.01, "delay_wrapper": "bold"},
        payoffs="gaussian", delay="uniform:0..4", estimate="sort"),
    "greedy-traces": Experiment(
        n=5, horizon=500, replications=16, policy={"name": "eps-greedy"},
        payoffs="gaussian", delay="fixed:3", write_outputs=True),
    "polytope-dense": PolytopeDense(n=50, matrices=60, mixture=30),
}
