#!/usr/bin/env python3
"""Full replication study over every benchmark setting.

Runs the complete grid (3 covariance structures x 3 sample sizes x 200
replications, STTV and RegTV variants) through ``sttvcox.replicate``, one
call per setting, and writes one metrics CSV per setting plus combined
summary tables.  With ``--select cv`` every replication chooses K by
cross-validation on its own data.  On a 2-core x86_64 machine (``jobs=1``,
one BLAS thread) one such replication took 11.7 s at n = 500 and 120 s at
n = 2000, so the 600 replications of each of those sizes take about 2 and
20 core-hours; n = 5000 was not timed, and costs more.  Pass
``--select fixed --K 3`` for a much faster fixed-dimension run, or trim ``--reps``, ``--sizes``, and ``--covariances`` for smoke
tests.  Every setting is checked before anything is written; a bad one
stops the run with a one-line error and exit code 2.  A run in which every
replication of every setting failed writes ``failures.csv`` and then stops
with exit code 3.  Failures exit as the ``sttvcox`` command does: one line
on stderr and code 2 (bad setting or unwritable output), 3 (numeric
failure) or 4 (non-convergence).

Output layout (schemas shared with the reporting module):

    OUTPUT/
      metrics_<covariance>_<n>.csv   per-rep metric rows
      failures.csv                   covariance,n,variant,rep,error
      chosen_K.csv                   covariance,n,variant,rep,K
      summary.csv / summary.md       grouped mean/sd cells over all settings
      timing.json                    per setting: wall seconds, replications,
                                     completed fits by variant and failures by
                                     error class; Python and numpy versions

``timing.json`` is the one file whose bytes differ between reruns, so it
stays out of the tables above.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from sttvcox import DEFAULT_CANDIDATES, VARIANTS, FitConfig, NumericError, Scenario, replicate
from sttvcox.cli import _guarded
from sttvcox.dataset import _atomic_write, _table_text
from sttvcox.reporting import build_summary, metric_rows, render_csv, render_markdown
from sttvcox.simulation import validate_study


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--output", required=True, help="output directory")
    parser.add_argument("--reps", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[500, 2000, 5000])
    parser.add_argument("--covariances", nargs="+",
                        default=["ind", "ar1", "cs"])
    parser.add_argument("--select", choices=("cv", "fixed"), default="cv",
                        help="per-rep cross-validation or a fixed dimension")
    parser.add_argument("--K", type=int, default=3,
                        help="dimension for --select fixed")
    parser.add_argument("--candidates", type=int, nargs="+",
                        default=list(DEFAULT_CANDIDATES))
    parser.add_argument("--folds", type=int, default=10)
    return parser.parse_args(argv)


def run(args) -> int:
    configs = [FitConfig(K=args.K, variant=v, seed=args.seed) for v in VARIANTS]
    selection = {
        "candidates": tuple(args.candidates) if args.select == "cv" else None,
        "folds": args.folds,
    }
    scenarios = [Scenario(n=n, covariance=covariance, seed=args.seed)
                 for covariance in args.covariances for n in args.sizes]
    for scenario in scenarios:
        validate_study(scenario, configs, args.reps, args.jobs, **selection)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)

    metrics_paths, all_chosen, all_failures = [], [], []
    timing = {"python": platform.python_version(), "numpy": np.__version__,
              "jobs": args.jobs, "select": args.select, "settings": []}
    produced = 0
    for scenario in scenarios:
        covariance, n = scenario.covariance, scenario.n
        print(f"running {covariance} n={n} reps={args.reps} "
              f"select={args.select}", flush=True)
        start = time.perf_counter()
        result = replicate(scenario, configs, args.reps, jobs=args.jobs, **selection)
        timing["settings"].append({
            "covariance": covariance, "n": n, "reps": args.reps,
            "wall_s": time.perf_counter() - start,
            "fits": {v: len(result.reports[v]) for v in result.variants},
            "failures": dict(sorted(Counter(result.failure_kinds).items())),
        })
        path = outdir / f"metrics_{covariance}_{n}.csv"
        header, rows = metric_rows(result)
        _atomic_write(path, _table_text(header, rows))
        produced += len(rows)
        metrics_paths.append(path)
        all_chosen.extend(
            (covariance, n, variant, rep, K)
            for variant in result.variants
            for rep, K in sorted(result.chosen_K[variant].items())
        )
        all_failures.extend(
            (covariance, n, variant, rep, message)
            for rep, variant, message in result.failures
        )

    _atomic_write(outdir / "chosen_K.csv",
                  _table_text(("covariance", "n", "variant", "rep", "K"), all_chosen))
    _atomic_write(outdir / "failures.csv",
                  _table_text(("covariance", "n", "variant", "rep", "error"), all_failures))
    _atomic_write(outdir / "timing.json", json.dumps(timing, indent=2) + "\n")
    if not produced:
        raise NumericError(f"every replication failed ({len(all_failures)} failures)")

    summary = build_summary(metrics_paths)
    _atomic_write(outdir / "summary.csv", render_csv(summary))
    _atomic_write(outdir / "summary.md", render_markdown(summary))
    print(f"{len(metrics_paths)} settings, {len(all_failures)} failed fits; "
          f"summaries in {outdir}")
    return 0


def main(argv=None) -> int:
    return _guarded(lambda: run(parse_args(argv)))


if __name__ == "__main__":
    sys.exit(main())
