"""rankbandit benchmark: one workload, one run, metrics as JSON on the last line.

    python3 bench/run.py --workload adversarial-osmd --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed). ``--trace 0`` measures the end-to-end
metrics with no timing wrappers installed; every pass is timed next to a
fixed reference kernel, so the throughput is rescaled to one host speed.
``--trace 1`` is a separate run that alternates untraced and traced passes
and reports the per-layer metrics from the traced ones, plus the tracing
overhead. Scratch files go to ``.bench_work/`` under the checkout. See
bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import PINNED_SEED, WORKLOADS, fingerprint_mismatch  # noqa: E402

MIN_SETUP_PROBES = 9  # timed set-ups per run at least; the median is reported
PROBE_EVERY_S = 3.0  # one set-up probe per this much run time

# Time of reference_kernel() on a 2-vCPU Xeon VM at full speed. Throughput is
# reported as if every pass had run at the host speed this figure stands for.
REFERENCE_NOMINAL_S = 0.04


def reference_kernel() -> float:
    """Fixed work with the program's mix: small-array numpy calls, and scans
    over nested Python lists like the peeling and mirror-step loops. It does
    not use rankbandit, so no change to the program moves its time; only the
    host's speed does."""
    rng = np.random.default_rng(2402)
    a = rng.random((20, 20))
    v = rng.random(20)
    wide = rng.random(4096)
    cols = np.where(rng.random((30, 30)) < 0.6, 0.0, rng.random((30, 30))).tolist()
    acc = 0.0
    for i in range(2000):
        x = a @ v
        c = np.cumsum(x[np.argsort(x)])
        acc += float(c[-1]) + float(np.maximum.accumulate(x)[-1])
        v = x / c[-1]
        if i % 50 == 0:
            wide = np.sort(wide * 1.5 + acc % 1.0)
        for col in cols[i % 3::3]:
            j = 0
            while j < 30 and col[j] == 0.0:
                j += 1
            low = col[j] if j < 30 else 1.0
            for value in col:
                if 0.0 < value < low:
                    low = value
            acc += low
    return acc


def time_reference() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def load_rankbandit():
    """Import the package from the checkout's ``src/``, never from elsewhere."""
    if not (SRC / "rankbandit" / "__init__.py").is_file():
        raise FileNotFoundError(f"no rankbandit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rankbandit
    import rankbandit.cli  # noqa: F401

    if Path(rankbandit.__file__).resolve().parent != SRC / "rankbandit":
        raise ImportError(f"rankbandit imported from {rankbandit.__file__}, not {SRC}")
    return rankbandit


class SetupProbe:
    """Times ``import rankbandit`` plus loading and validating the inputs in a
    fresh interpreter, timed inside the child so interpreter start-up is not
    counted. The first probe is untimed, so bytecode compilation is not
    counted either. Each probe's time is also rescaled, like a pass, by the
    reference kernel run just before and after it."""

    def __init__(self, kind: str, paths: list[Path]):
        self.cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), kind,
                    *map(str, paths)]
        self.times: list[float] = []
        self.rescaled: list[float] = []
        self._probe()

    def _probe(self) -> float:
        done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=60, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
        return float(done.stdout.strip().splitlines()[-1])

    def sample(self) -> None:
        before = time_reference()
        took = self._probe()
        self.times.append(took)
        self.rescaled.append(
            took * REFERENCE_NOMINAL_S / statistics.fmean((before, time_reference())))


def env_block(workload: str) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "nproc": os.cpu_count(), "cpu": cpu}
    baseline = BENCH_DIR / "baseline.json"
    if baseline.is_file():
        env["spread"] = json.loads(baseline.read_text())["spread"].get(workload)
    return env


class Run:
    """Passes over one workload's inputs, with checks and failure counts."""

    def __init__(self, rankbandit, inputs):
        self.rankbandit = rankbandit
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._reference = None

    def one_pass(self, inputs=None, pinned: dict | None = None) -> tuple[float, list[float]]:
        """Run, time and check one pass. Returns its wall time and the times
        of the reference kernels a pass of several units runs between them,
        which are not part of the pass time."""
        inputs = inputs or self.inputs
        references: list[float] = []
        start = time.perf_counter()
        try:
            result = inputs.run_pass(self.rankbandit,
                                     lambda: references.append(time_reference()))
        except Exception:  # a pass that raises fails all of its ops
            self._record(inputs.ops_per_pass, inputs.ops_per_pass,
                         [traceback.format_exc(limit=4)])
            return time.perf_counter() - start - sum(references), references
        elapsed = time.perf_counter() - start - sum(references)
        try:
            inputs.check(result, self.rankbandit)
            fingerprint = inputs.fingerprint(result)
        except Exception:
            result.failures.append(traceback.format_exc(limit=4))
            result.failed_ops = result.ops
            fingerprint = None
        if fingerprint is not None:
            if pinned is not None:
                problems = fingerprint_mismatch(fingerprint, pinned)
            else:
                # every pass over the same inputs must give the same outputs
                self._reference = self._reference or fingerprint
                problems = [] if fingerprint == self._reference else ["pass not reproducible"]
            if problems:
                result.failures.extend(problems)
                result.failed_ops = result.ops
        self._record(result.ops, result.failed_ops, result.failures)
        # a pass leaves reference cycles (the sort burn-in's closures hold its
        # display log); collect them so peak RSS does not follow GC timing
        del result
        gc.collect()
        return elapsed, references

    def _record(self, ops: int, failed: int, failures: list[str]) -> None:
        self.attempted += ops
        self.failed += failed
        self.failures.extend(failures)


def norm_ops_per_s(ops: int, passes: list[tuple[float, float]]) -> float:
    """Ops per second of the median pass, each pass's time rescaled by
    REFERENCE_NOMINAL_S over the reference time measured around it.

    ``passes`` holds (pass seconds, reference seconds) pairs.
    """
    return ops / statistics.median(t * REFERENCE_NOMINAL_S / ref for t, ref in passes)


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 specs=WORKLOADS, fingerprints: dict | None = None,
                 setup: bool = True) -> dict:
    """One benchmark run. ``fingerprints`` maps workload name to the pinned
    fingerprint of ``PINNED_SEED``; a workload without one skips that pass."""
    spec = specs[name]
    rankbandit = load_rankbandit()
    workdir = WORK / f"{name}-{seed}"
    inputs = spec.prepare(seed, workdir)
    kind = "matrices" if inputs.paths[0].suffix == ".npy" else "config"
    probe = SetupProbe(kind, inputs.paths) if setup and not trace else None

    run = Run(rankbandit, inputs)
    pinned = (fingerprints or {}).get(name)
    if pinned is not None:
        # also warms caches and lazy imports before anything is timed
        run.one_pass(spec.prepare(PINNED_SEED, WORK / f"{name}-pinned"), pinned=pinned)
    else:
        run.one_pass()

    ops = inputs.ops_per_pass
    # (pass seconds, mean of the reference times just before, within and after it)
    plain: list[tuple[float, float]] = []
    traced: list[tuple[float, float]] = []
    tracer = tracing.Tracer() if trace else None
    time_reference()  # warm-up
    ref_before = time_reference()
    now = time.perf_counter()
    deadline = now + seconds
    next_probe = now
    pass_id = 0
    while not plain or now < deadline or (trace and not traced):
        use_tracer = trace and pass_id % 2 == 1
        if use_tracer:
            tracer.pass_id = pass_id
            tracer.install()
        try:
            elapsed, within = run.one_pass()
        finally:
            if use_tracer:
                tracer.uninstall()
        ref_after = time_reference()
        references = [ref_before, *within, ref_after]
        (traced if use_tracer else plain).append((elapsed, statistics.fmean(references)))
        ref_before = ref_after
        now = time.perf_counter()
        if probe is not None and now >= next_probe:
            # spread over the run, so a slow phase of the host skews few samples
            probe.sample()
            ref_before = time_reference()
            now = time.perf_counter()
            next_probe = now + PROBE_EVERY_S
        pass_id += 1
    while probe is not None and len(probe.times) < MIN_SETUP_PROBES:
        probe.sample()

    result = {"attempted": run.attempted, "failed": run.failed, "failures": run.failures,
              "passes": len(plain), "ops_per_pass": ops,
              "pass_ops_per_s": [ops / t for t, _ in plain],
              "reference_s": [ref for _, ref in plain],
              "norm_ops_per_s": norm_ops_per_s(ops, plain),
              "env": env_block(name)}
    if trace:
        traced_ids = list(range(1, pass_id, 2))
        counts = tracer.pass_counts(traced_ids)
        if any(counts[p] != counts[traced_ids[0]] for p in traced_ids):
            run.failures.append("traced counts differ between passes")
            result["failed"] += ops * len(traced_ids)
        result["layers"] = tracer.layer_metrics(traced_ids, sum(t for t, _ in traced))
        result["counts"] = counts[traced_ids[0]]
        result["traced_norm_ops_per_s"] = norm_ops_per_s(ops, traced)
        result["traced_passes"] = len(traced)
        tracer.save(workdir / "spans.npz")
    else:
        result["setup_s"] = statistics.median(probe.rescaled) if probe else None
        result["setup_samples"] = probe.times if probe else []
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def metrics_of(result: dict, declared: list[dict]) -> dict:
    values = dict(result.get("layers", {}))
    for key in ("norm_ops_per_s", "setup_s", "peak_rss_mb"):
        if result.get(key) is not None:
            values[key] = result[key]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared if m["name"] in values}


def report(name: str, seed: int, result: dict, trace: bool, declared: dict) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    env = result["env"]
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload: {name}  seed: {seed}  passes: {result['passes']} untraced"
          + (f", {result['traced_passes']} traced" if trace else "")
          + f"  ops per pass: {result['ops_per_pass']}")
    rates, refs = result["pass_ops_per_s"], result["reference_s"]
    print(f"norm_ops_per_s: median of {len(rates)} untraced passes, each rescaled to a"
          f" {REFERENCE_NOMINAL_S} s reference kernel (raw ops/s: median pass"
          f" {statistics.median(rates):.6g}, fastest {max(rates):.6g}, slowest {min(rates):.6g};"
          f" reference s: median {statistics.median(refs):.6g}, min {min(refs):.6g},"
          f" max {max(refs):.6g})")
    if result.get("setup_samples"):
        raw = result["setup_samples"]
        print(f"setup_s: median of {len(raw)} fresh interpreters, each rescaled to a"
              f" {REFERENCE_NOMINAL_S} s reference kernel (raw s: median"
              f" {statistics.median(raw):.6g}, min {min(raw):.6g}, max {max(raw):.6g})")
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for line in result["failures"][:10]:
        print(f"check failed: {line.strip()}", file=sys.stderr)
    metrics = metrics_of(result, declared["per_layer" if trace else "end_to_end"])
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    if trace:
        plain, traced = result["norm_ops_per_s"], result["traced_norm_ops_per_s"]
        print(f"tracing overhead: traced {traced:.6g} ops/s vs untraced {plain:.6g} ops/s"
              f" ({(plain / traced - 1) * 100:+.1f}% time per op)")
        print(f"traced counts per pass: {json.dumps(result['counts'], sort_keys=True)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def load_declared() -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: declared[key] for key in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        declared = load_declared()
        fingerprints = json.loads((BENCH_DIR / "fingerprints.json").read_text())
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              fingerprints=fingerprints)
    except (OSError, ImportError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report(args.workload, args.seed, result, bool(args.trace), declared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
