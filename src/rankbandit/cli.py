"""Command-line front end: run experiments, decompose/check matrices, print bounds."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .harness import ExperimentConfig, run_experiment
from .polytope import InadmissibleMatrixError, admissibility_report, rfsm_decompose


def _load_matrix(path: str) -> np.ndarray:
    if path.endswith(".npy"):
        return np.load(path)
    if path.endswith(".json"):
        with open(path) as fh:
            return np.asarray(json.load(fh), dtype=float)
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _load_config(args) -> ExperimentConfig:
    with open(args.config) as fh:
        raw = json.load(fh)
    if getattr(args, "seed", None) is not None:
        raw["seed"] = args.seed
    if getattr(args, "output", None) is not None:
        raw["output_dir"] = args.output
    if getattr(args, "policy", None) is not None:
        raw.setdefault("policy", {})
        raw["policy"] = {**raw["policy"], "name": args.policy}
    if getattr(args, "delay", None) is not None:
        raw["delay"] = args.delay
    if getattr(args, "estimate", None) is not None:
        raw["estimate"] = None if args.estimate == "none" else args.estimate
    if getattr(args, "replications", None) is not None:
        raw["replications"] = args.replications
    return ExperimentConfig.from_dict(raw)


def _cmd_run(args) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    cfg = _load_config(args)
    report = run_experiment(cfg, workers=args.workers)
    final_mean = report.mean_regret[-1]
    final_se = report.se_regret[-1]
    print(f"label:        {cfg.label}")
    print(f"policy:       {cfg.policy['name']}  delay: {cfg.delay}"
          + (f"  estimate: {cfg.estimate}" if cfg.estimate else ""))
    print(f"horizon:      {cfg.horizon}  replications: {cfg.replications}  "
          f"seed: {cfg.seed}")
    print(f"final regret: {final_mean:.4f} +- {final_se:.4f} (mean +- se)")
    active = report.bounds.get("active")
    if active and report.bounds.get(active) is not None:
        print(f"bound ({active}): {report.bounds[active]:.4f}")
    if cfg.output_dir:
        print(f"wrote report.json, summary.csv and traces/ under {cfg.output_dir}")
    return 0


def _cmd_decompose(args) -> int:
    P = _load_matrix(args.matrix)
    try:
        decomp = rfsm_decompose(P, atol=args.atol)
    except InadmissibleMatrixError as exc:
        print(f"inadmissible: {exc.report.first}", file=sys.stderr)
        return 1
    for weight, perm in zip(decomp.weights, decomp.permutations):
        print(json.dumps({"weight": float(weight), "ranking": list(perm)}))
    return 0


def _cmd_check(args) -> int:
    P = _load_matrix(args.matrix)
    report = admissibility_report(P, atol=args.atol)
    if report.ok:
        print("admissible")
        return 0
    print(f"inadmissible: {report.first}")
    if args.all:
        for violation in report.violations[1:]:
            print(f"              {violation}")
    return 1


def _cmd_bound(args) -> int:
    cfg = _load_config(args)
    from .harness import _bound_values

    bounds = _bound_values(cfg)
    if bounds["elimination"] is not None:
        print(f"elimination:    {bounds['elimination']:.4f}")
    print(f"mirror descent: {bounds['mirror_descent']:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankbandit",
        description="Online ranking for limited-attention users: experiments, "
                    "matrix decomposition, admissibility checks, regret bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment from a JSON config")
    run.add_argument("config", help="path to the experiment config (JSON)")
    run.add_argument("--seed", type=int, default=None, help="override the root seed")
    run.add_argument("--output", default=None, help="override the output directory")
    run.add_argument("--policy", choices=("elim", "eps-greedy", "osmd"), default=None,
                     help="override the policy name")
    run.add_argument("--delay", default=None,
                     help="override delay: none, fixed:K or uniform:0..K")
    run.add_argument("--estimate", choices=("none", "sort", "social"), default=None,
                     help="override the utility-estimation burn-in mode")
    run.add_argument("--replications", type=int, default=None,
                     help="override the replication count")
    run.add_argument("--workers", type=int, default=1,
                     help="process-pool size (default 1)")
    run.set_defaults(func=_cmd_run)

    dec = sub.add_parser("decompose",
                         help="decompose an admissible matrix into rankings")
    dec.add_argument("matrix", help="matrix file (.npy, .json or .csv)")
    dec.add_argument("--atol", type=float, default=1e-9)
    dec.set_defaults(func=_cmd_decompose)

    chk = sub.add_parser("check", help="check matrix admissibility")
    chk.add_argument("matrix", help="matrix file (.npy, .json or .csv)")
    chk.add_argument("--atol", type=float, default=1e-9)
    chk.add_argument("--all", action="store_true", help="print every violation")
    chk.set_defaults(func=_cmd_check)

    bnd = sub.add_parser("bound", help="print theoretical regret bounds for a config")
    bnd.add_argument("config", help="path to the experiment config (JSON)")
    bnd.set_defaults(func=_cmd_bound)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
