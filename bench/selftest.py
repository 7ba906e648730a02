"""Self-test of the benchmark at tiny sizes (under a minute).

    python3 bench/selftest.py

Checks that every declared metric prints by name with its unit, that traced
counts repeat exactly between two traced runs on one seed, that corrupted
outputs (a trace, a hindsight value, a decomposition, a pinned fingerprint)
are counted as failed ops, and that the benchmark exits non-zero without a
result when the checkout holds no program sources.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
from workloads import PINNED_SEED, Experiment, PolytopeDense  # noqa: E402

TINY = {
    "adversarial-osmd": Experiment(
        n=5, horizon=60, replications=2, policy={"name": "osmd"}, payoffs="bernoulli",
        configs=2),
    "stochastic-elim": Experiment(
        n=8, horizon=600, replications=1,
        policy={"name": "elim", "delta": 0.01, "delay_wrapper": "bold"},
        payoffs="gaussian", delay="uniform:0..4", estimate="sort"),
    "greedy-traces": Experiment(
        n=4, horizon=80, replications=3, policy={"name": "eps-greedy"},
        payoffs="gaussian", delay="fixed:3", write_outputs=True),
    "polytope-dense": PolytopeDense(n=8, matrices=4, mixture=5),
}
SEED = 3
SECONDS = 0.2


def tiny_run(name: str, trace: bool = False, fingerprints=None, setup: bool = False):
    """(result, final JSON, printed text) of one tiny in-process run."""
    result = bench.run_workload(name, SEED, SECONDS, trace, specs=TINY,
                                fingerprints=fingerprints, setup=setup)
    out = io.StringIO()
    # failed checks go to stderr; the cases that provoke them are expected
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        final = bench.report(name, SEED, result, trace, bench.load_declared())
    return result, final, out.getvalue()


@contextlib.contextmanager
def patched(owner, attr, make):
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def expect(cond: bool, what: str, failures: list[str]) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        failures.append(what)


def check_metrics_print(failures: list[str]) -> None:
    declared = bench.load_declared()
    for name in TINY:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            _, final, text = tiny_run(name, trace=trace, setup=not trace)
            want = {m["name"]: m["unit"] for m in declared[kind]}
            got = {k: v["unit"] for k, v in final["metrics"].items()}
            printed = all(f"\n{k} = " in text and text.split(f"\n{k} = ", 1)[1]
                          .split("\n", 1)[0].endswith(f" {u}") for k, u in want.items())
            expect(final["correct"] and final["failed"] == 0 and got == want and printed,
                   f"{name} trace={int(trace)}: correct, every {kind} metric printed with unit",
                   failures)
            if trace:
                expect("tracing overhead:" in text, f"{name}: overhead line printed", failures)


def check_counts_repeat(failures: list[str]) -> None:
    for name in TINY:
        first, _, _ = tiny_run(name, trace=True)
        second, _, _ = tiny_run(name, trace=True)
        expect(first["counts"] == second["counts"] and any(first["counts"].values()),
               f"{name}: traced counts repeat exactly between two runs", failures)


def check_fingerprints(failures: list[str]) -> None:
    rankbandit = bench.load_rankbandit()
    for name in ("adversarial-osmd", "greedy-traces"):
        inputs = TINY[name].prepare(PINNED_SEED, bench.WORK / "selftest-pin")
        pinned = inputs.fingerprint(inputs.run_pass(rankbandit))
        _, final, _ = tiny_run(name, fingerprints={name: pinned})
        expect(final["failed"] == 0, f"{name}: matching fingerprint passes", failures)
        near = dict(pinned, final_regret=[v * (1 + 1e-12) for v in pinned["final_regret"]])
        _, final, _ = tiny_run(name, fingerprints={name: near})
        expect(final["failed"] == 0, f"{name}: regret within 1e-9 passes", failures)
        for key, bad in (("trace_sha256", "0" * 64),
                         ("final_regret", [v + 1e-3 for v in pinned["final_regret"]])):
            _, final, _ = tiny_run(name, fingerprints={name: dict(pinned, **{key: bad})})
            expect(final["failed"] == inputs.ops_per_pass and not final["correct"],
                   f"{name}: wrong pinned {key} fails the pinned pass", failures)


def check_corruption_counted(failures: list[str]) -> None:
    rankbandit = bench.load_rankbandit()
    harness = rankbandit.harness

    def corrupt_trace(original):
        def run_replication(cfg, rep):
            summary, trace = original(cfg, rep)
            trace.payoffs[0] += 1.0
            return summary, trace
        return run_replication

    with patched(harness, "run_replication", corrupt_trace):
        _, final, text = tiny_run("greedy-traces")
    expect(final["failed"] == final["attempted"] and not final["correct"]
           and "failed_frac = 1 " in text,
           "corrupted trace counted in failed_frac", failures)

    def wrong_hindsight(original):
        def best_fixed_hindsight(*args, **kwargs):
            right = original(*args, **kwargs)
            return dataclasses.replace(right, value=right.value + 0.5)
        return best_fixed_hindsight

    with patched(harness, "best_fixed_hindsight", wrong_hindsight):
        _, final, _ = tiny_run("adversarial-osmd")
    expect(final["failed"] == final["attempted"], "wrong hindsight value counted", failures)

    polytope = rankbandit.polytope

    def wrong_decomposition(original):
        def rfsm_decompose(P, **kwargs):
            d = original(P, **kwargs)
            return polytope.Decomposition(d.weights, d.permutations[::-1])
        return rfsm_decompose

    with patched(polytope, "rfsm_decompose", wrong_decomposition):
        _, final, text = tiny_run("polytope-dense")
    expect(0 < final["failed"] <= final["attempted"] and not final["correct"]
           and "failed_frac = 0 " not in text,
           "wrong decomposition counted in failed_frac", failures)


def check_bare_directory(failures: list[str]) -> None:
    bare = bench.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bench.BENCH_DIR, bare / bench.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, f"{bench.BENCH_DIR.name}/run.py", "--workload", "greedy-traces",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    printed_result = bool(lines) and lines[-1].startswith("{")
    expect(done.returncode != 0 and not printed_result,
           "no sources: non-zero exit, no result", failures)
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    failures: list[str] = []
    check_metrics_print(failures)
    check_counts_repeat(failures)
    check_fingerprints(failures)
    check_corruption_counted(failures)
    check_bare_directory(failures)
    print(json.dumps({"selftest_failures": failures}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
