"""Aggregation of replication artifacts into summary tables.

Raw input is the per-rep metrics CSV written by the simulate command (one
row per replication per model variant), or a ``StudyResult`` in memory.
Output is a StudySummary with grouped mean/sd cells and renderings as
Markdown or CSV.  The means and sds of both inputs come from one
reduction, ``simulation.rep_moments``.  Per-rep curve
CSVs carrying confidence-interval columns give a pointwise coverage
profile (``coverage_profile``).

The curve CSV is both written (``curves_csv_text``) and read
(``read_curve_table``) here; the reader returns a ``CurveEstimate``, so a
written table reads back as the curve set it came from.  Every table here
follows the CSV rules of README "Tables".

Display conventions: squared-error cells (ISE, AISE) are multiplied by
100; detection ratios and coverage stay on [0, 1].  Spreads are sample
standard deviations (ddof=1), reported as 0 when a group has a single
replication (footnoted).  Aggregation is permutation-invariant in input
row order: rows are sorted by replication index before reduction.

Metrics CSV schema (p coefficients):

    covariance,n,variant,rep,aise,ise_1..ise_p,etpr_1..etpr_p,
    etnr_1..etnr_p,itpr_1..itpr_p,itnr_1..itnr_p

Curve CSV schema (written by the fit, cv and simulate commands):

    covariate,t,theta_hat,beta_hat,sigma_hat,ci_lower,ci_upper,is_zero
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .dataset import _read_table, _table_text
from .errors import ValidationError
from .inference import CurveEstimate
from .simulation import _PER_COEFFICIENT, Scenario, StudyResult, coverage_rate, rep_moments

_BASE_COLUMNS = ("covariance", "n", "variant", "rep")
_SCALED = ("aise", "ise")

# one grouped summary cell: the fields of StudySummary.rows, the columns of
# render_csv and the keys of a summary.json cell
SUMMARY_COLUMNS = ("covariance", "n", "variant", "metric", "coefficient", "mean", "sd", "reps")

CURVE_COLUMNS = (
    "covariate",
    "t",
    "theta_hat",
    "beta_hat",
    "sigma_hat",
    "ci_lower",
    "ci_upper",
    "is_zero",
)


def metrics_header(p: int) -> tuple:
    cols = list(_BASE_COLUMNS) + ["aise"]
    for name in _PER_COEFFICIENT:
        cols.extend(f"{name}_{j + 1}" for j in range(p))
    return tuple(cols)


def report_row(report, covariance: str, n: int, variant: str, rep: int) -> tuple:
    """One metrics CSV data row for a single scored replication."""
    cells = [covariance, str(int(n)), variant, str(int(rep))]
    cells.extend(repr(float(v)) for v in report.values())
    return tuple(cells)


def metric_rows(result: StudyResult) -> tuple:
    """(header, rows) for the per-rep metrics CSV, raw scale, repr floats."""
    sc = result.scenario
    rows = [
        report_row(result.reports[variant][rep], sc.covariance, sc.n, variant, rep)
        for variant in sorted(result.variants)
        for rep in sorted(result.reports[variant])
    ]
    return metrics_header(sc.p), rows


@dataclass(frozen=True)
class StudySummary:
    """Grouped cells: one row per (covariance, n, variant, metric, coefficient)."""

    rows: tuple            # SUMMARY_COLUMNS; coefficient None for aise
    p: int
    n_raw_rows: int
    footnotes: tuple


def _summary(groups: dict, p: int) -> StudySummary:
    """Cells of {(covariance, n, variant): {rep: MetricReport.values()}}."""
    names = metrics_header(p)[len(_BASE_COLUMNS):]
    rows = []
    for key in sorted(groups):
        count = len(groups[key])
        means, sds = rep_moments(groups[key])
        for col, mean, sd in zip(names, means.tolist(), sds.tolist()):
            base, _, suffix = col.partition("_")
            if base in _SCALED:
                mean, sd = 100.0 * mean, 100.0 * sd
            rows.append((*key, base, int(suffix) if suffix else None, mean, sd, count))
    counts = [len(bucket) for bucket in groups.values()]
    footnotes = ["ISE and AISE cells are scaled by 100."]
    if 1 in counts:
        footnotes.append("sd is reported as 0 for groups with a single replication.")
    return StudySummary(tuple(rows), p, sum(counts), tuple(footnotes))


def build_summary(metrics_paths) -> StudySummary:
    """Aggregate per-rep metrics CSVs sharing one schema into grouped mean/sd cells.

    Squared-error cells come out multiplied by 100.  Duplicate (group, rep)
    rows are rejected so every cell is traceable to distinct replications.
    Floats written by ``metric_rows`` parse back to the same doubles, so the
    cells of a study's metrics CSV are those of ``study_summary``.
    """
    paths = [str(p) for p in metrics_paths]
    if not paths:
        raise ValidationError("no metrics files given")
    header = None
    records = []
    for path in paths:
        file_header, rows = _read_table(path, metrics_header(1))  # the columns of any p >= 1
        if header is None:
            header = file_header
        elif file_header != header:
            raise ValidationError(
                f"{path}: header differs from {paths[0]}; refusing to mix schemas"
            )
        records.extend(dict(zip(header, row)) for row in rows)
    if not records:
        raise ValidationError("metrics files contain no data rows")
    p = 1
    while f"ise_{p + 1}" in header:
        p += 1
    value_cols = metrics_header(p)[len(_BASE_COLUMNS):]
    groups: dict = {}
    for rec in records:
        try:
            key = (rec["covariance"], int(rec["n"]), rec["variant"])
            rep = int(rec["rep"])
            values = [float(rec[c]) for c in value_cols]
        except (KeyError, ValueError) as exc:
            raise ValidationError(f"bad metrics row {rec}: {exc}") from exc
        bucket = groups.setdefault(key, {})
        if rep in bucket:
            raise ValidationError(f"duplicate rep {rep} for group {key}")
        bucket[rep] = values
    return _summary(groups, p)


def study_summary(result: StudyResult) -> StudySummary:
    """The cells ``build_summary`` gives for a study's metrics CSV, from its reports."""
    sc = result.scenario
    return _summary({
        (sc.covariance, int(sc.n), variant): {rep: x.values() for rep, x in by_rep.items()}
        for variant, by_rep in result.reports.items() if by_rep
    }, sc.p)


def curves_csv_text(curves: CurveEstimate, scales=None) -> str:
    """Long-format curve table; value columns divided by a positive scale when given.

    Covariate names come from ``curves.covariate_names`` (``z1..zp`` when
    the curve set carries none).  Floats are written with ``repr`` so
    ``read_curve_table`` reproduces them exactly.
    """
    p = curves.beta_hat.shape[0]
    names = curves.covariate_names or tuple(f"z{j + 1}" for j in range(p))
    # repr strings: csv.writer formats a float cell more slowly than repr
    grid = [repr(t) for t in curves.grid.tolist()]
    rows = []
    for j, name in enumerate(names):
        s = 1.0 if scales is None else float(scales[j])
        # the value columns are named after the curve set's fields
        values = [[repr(v / s) for v in getattr(curves, f)[j].tolist()] for f in CURVE_COLUMNS[2:7]]
        flags = ["true" if z else "false" for z in curves.zero_flags[j].tolist()]
        rows.extend(zip(repeat(name), grid, *values, flags))
    return _table_text(CURVE_COLUMNS, rows)


def read_curve_table(path, level: float = 0.95) -> CurveEstimate:
    """One curve CSV as a curve set, arrays shaped (p, grid).

    The table carries no fallback column, so ``fallback`` is all False;
    ``level`` is recorded as given.  A NaN cell is a ``ValidationError``;
    an infinite one (the standard error of a constant covariate) is kept.
    """
    if not 0.0 < level < 1.0:
        raise ValidationError(f"level must lie in (0, 1), got {level}")
    header, rows = _read_table(path, CURVE_COLUMNS)
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    at = {col: header.index(col) for col in CURVE_COLUMNS}
    by_name = {}
    for row in rows:
        by_name.setdefault(row[at["covariate"]], []).append(row)
    if len({len(group) for group in by_name.values()}) != 1:
        raise ValidationError(f"{path}: covariates have unequal grid sizes")

    def column(field: str, conv) -> np.ndarray:
        try:
            values = np.array(
                [[conv(r[at[field]]) for r in group] for group in by_name.values()]
            )
        except ValueError as exc:
            raise ValidationError(f"{path}: bad value in column {field}: {exc}") from exc
        if values.dtype == float and np.isnan(values).any():
            raise ValidationError(f"{path}: NaN in column {field}")
        return values

    def parse_flag(text: str) -> bool:
        t = text.strip().lower()
        if t in ("true", "1"):
            return True
        if t in ("false", "0"):
            return False
        raise ValidationError(f"is_zero must be true/false, got {text!r}")

    grids = column("t", float)
    if not np.all(grids == grids[0]):
        raise ValidationError(f"{path}: covariates evaluated on different grids")
    beta_hat = column("beta_hat", float)
    return CurveEstimate(
        grid=grids[0],
        theta_hat=column("theta_hat", float),
        beta_hat=beta_hat,
        sigma_hat=column("sigma_hat", float),
        ci_lower=column("ci_lower", float),
        ci_upper=column("ci_upper", float),
        zero_flags=column("is_zero", parse_flag).astype(bool),
        level=float(level),
        fallback=np.zeros(beta_hat.shape, dtype=bool),
        covariate_names=tuple(by_name),
    )


def coverage_profile(curve_paths, scenario: Scenario) -> dict:
    """Fraction of replications whose interval covers the truth, pointwise.

    All files must share one grid and one covariate set.  Returns the grid,
    a (p, grid) coverage array, and the replication count.
    """
    curve_paths = [str(p) for p in curve_paths]
    if not curve_paths:
        raise ValidationError("no curve files given")
    tables = [read_curve_table(p) for p in curve_paths]
    first = tables[0]
    for path, table in zip(curve_paths[1:], tables[1:]):
        if table.grid.shape != first.grid.shape or not np.array_equal(
            table.grid, first.grid
        ):
            raise ValidationError(f"{path}: grid differs across curve files")
        if table.covariate_names != first.covariate_names:
            raise ValidationError(f"{path}: covariate set differs across curve files")
    p = len(first.covariate_names)
    if p != scenario.p:
        raise ValidationError(
            f"curve files carry {p} covariates, scenario defines {scenario.p}"
        )
    truth = scenario.true_curves(first.grid)
    return {
        "names": first.covariate_names,
        "grid": first.grid,
        "coverage": coverage_rate(
            [(t.ci_lower <= truth) & (truth <= t.ci_upper) for t in tables]
        ),
        "n_reps": len(tables),
    }


def _fmt(x: float) -> str:
    if not np.isfinite(x):
        return "nan"
    return f"{x:.4f}"


def render_markdown(summary: StudySummary) -> str:
    """Readable table with one row per grouped cell."""
    lines = [
        "| " + " | ".join(SUMMARY_COLUMNS) + " |",
        "| --- | ---: | --- | --- | ---: | ---: | ---: | ---: |",
    ]
    for cov, n, variant, metric, coef, mean, sd, reps in summary.rows:
        coef_txt = "" if coef is None else str(coef)
        lines.append(
            f"| {cov} | {n} | {variant} | {metric} | {coef_txt} "
            f"| {_fmt(mean)} | {_fmt(sd)} | {reps} |"
        )
    lines.append("")
    for note in summary.footnotes:
        lines.append(f"- {note}")
    lines.append(f"- Aggregated from {summary.n_raw_rows} per-rep rows.")
    return "\n".join(lines) + "\n"


def render_csv(summary: StudySummary) -> str:
    """Machine-readable cells; floats written with repr for exact round trips."""
    # a None coefficient (the aise cells) is written as an empty cell
    return _table_text(SUMMARY_COLUMNS, summary.rows)
