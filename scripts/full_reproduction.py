#!/usr/bin/env python3
"""Full replication study over every benchmark setting.

Runs the complete grid (3 covariance structures x 3 sample sizes x 200
replications, STTV and RegTV variants) through ``sttvcox.replicate``, one
call per setting, and writes one metrics CSV per setting plus combined
summary tables.  With ``--select cv`` every replication chooses K by
cross-validation on its own data; this takes several hours on a 4-core
desktop.  Pass ``--select fixed --K 3`` for a much faster fixed-dimension
run, or trim ``--reps``, ``--sizes``, and ``--covariances`` for smoke
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
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from sttvcox import DEFAULT_CANDIDATES, VARIANTS, FitConfig, NumericError, Scenario, replicate
from sttvcox.cli import _guarded
from sttvcox.reporting import build_summary, metric_rows, render_csv, render_markdown
from sttvcox.simulation import validate_study


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
    produced = 0
    for scenario in scenarios:
        covariance, n = scenario.covariance, scenario.n
        print(f"running {covariance} n={n} reps={args.reps} "
              f"select={args.select}", flush=True)
        result = replicate(scenario, configs, args.reps, jobs=args.jobs, **selection)
        path = outdir / f"metrics_{covariance}_{n}.csv"
        header, rows = metric_rows(result)
        write_csv(path, header, rows)
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

    write_csv(outdir / "chosen_K.csv",
              ("covariance", "n", "variant", "rep", "K"), all_chosen)
    write_csv(outdir / "failures.csv",
              ("covariance", "n", "variant", "rep", "error"), all_failures)
    if not produced:
        raise NumericError(f"every replication failed ({len(all_failures)} failures)")

    summary = build_summary(metrics_paths)
    (outdir / "summary.csv").write_text(render_csv(summary))
    (outdir / "summary.md").write_text(render_markdown(summary))
    print(f"{len(metrics_paths)} settings, {len(all_failures)} failed fits; "
          f"summaries in {outdir}")
    return 0


def main(argv=None) -> int:
    return _guarded(lambda: run(parse_args(argv)))


if __name__ == "__main__":
    sys.exit(main())
