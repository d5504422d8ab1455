#!/usr/bin/env python3
"""Small seeded replication study, summarized like a results table.

Runs a handful of replications of the benchmark generator at a modest
sample size, scores both model variants on the standard metric battery,
and prints the grouped summary.  Squared-error cells are scaled by 100;
detection ratios stay on [0, 1].  Rerunning gives identical numbers.
"""

import csv
import tempfile
from pathlib import Path

import sttvcox as sx
from sttvcox.reporting import build_summary, metric_rows


def main():
    scenario = sx.Scenario(n=300, covariance="ind", seed=12)
    configs = [
        sx.FitConfig(K=3, variant="sttv", seed=12),
        sx.FitConfig(K=3, variant="regtv", seed=12),
    ]
    print(f"running 8 replications at n={scenario.n} "
          f"({scenario.covariance} covariance) ...")
    result = sx.replicate(scenario, configs, reps=8, jobs=2)
    if result.failures:
        print(f"{len(result.failures)} replications failed")

    header, rows = metric_rows(result)
    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "metrics.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        summary = build_summary([path])

    wanted = {("aise", None), ("ise", 1), ("etpr", 1), ("etnr", 1),
              ("itnr", 1)}
    print()
    print(f"{'variant':>8} {'metric':>7} {'coef':>4} {'mean':>9} {'sd':>9}")
    for cov, n, variant, metric, coef, mean, sd, reps in summary.rows:
        if (metric, coef) in wanted:
            coef_txt = "-" if coef is None else str(coef)
            print(f"{variant:>8} {metric:>7} {coef_txt:>4} "
                  f"{mean:9.3f} {sd:9.3f}")
    print()
    for note in summary.footnotes:
        print(f"note: {note}")

    cov = result.coverage_mean["sttv"]
    grid = result.grid
    inside = (grid >= 2.0) & (grid <= 2.9)
    print(f"\nmean interval coverage of effect 1 where the truth is zero "
          f"(t in [2.0, 2.9]): {cov[0, inside].mean():.3f}")


if __name__ == "__main__":
    main()
