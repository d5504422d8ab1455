"""Aggregation of replication artifacts into summary tables.

Raw input is the per-rep metrics CSV written by the simulate command (one
row per replication per model variant).  Output is a StudySummary with
grouped mean/sd cells and renderings as Markdown or CSV.  Per-rep curve
CSVs carrying confidence-interval columns give a pointwise coverage
profile (``coverage_profile``).

The curve CSV is both written (``curves_csv_text``) and read
(``read_curve_table``) here; the reader returns a ``CurveEstimate``, so a
written table reads back as the curve set it came from.

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

import csv
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError, ValidationError
from .inference import CurveEstimate
from .simulation import Scenario, StudyResult

_BASE_COLUMNS = ("covariance", "n", "variant", "rep")
_PER_COEFFICIENT = ("ise", "etpr", "etnr", "itpr", "itnr")
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
    cells = [covariance, str(int(n)), variant, str(int(rep)), repr(float(report.aise))]
    for name in _PER_COEFFICIENT:
        cells.extend(repr(float(v)) for v in getattr(report, name))
    return tuple(cells)


def metric_rows(result: StudyResult) -> tuple:
    """(header, rows) for the per-rep metrics CSV, raw scale, repr floats."""
    header = metrics_header(result.scenario.p)
    rows = []
    for variant in result.variants:
        for rep in sorted(result.reports[variant]):
            rows.append(
                report_row(
                    result.reports[variant][rep],
                    result.scenario.covariance,
                    result.scenario.n,
                    variant,
                    rep,
                )
            )
    rows.sort(key=lambda r: (r[0], int(r[1]), r[2], int(r[3])))
    return header, rows


def _read_metrics(paths) -> tuple:
    """Parsed rows from one or more metrics CSVs sharing one schema."""
    paths = [str(p) for p in paths]
    if not paths:
        raise ValidationError("no metrics files given")
    header = None
    records = []
    for path in paths:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                file_header = tuple(next(reader))
            except StopIteration:
                raise ValidationError(f"{path}: empty file") from None
            if header is None:
                header = file_header
                missing = [c for c in _BASE_COLUMNS + ("aise",) if c not in header]
                if missing:
                    raise SchemaError(f"{path}: missing columns {missing}")
            elif file_header != header:
                raise ValidationError(
                    f"{path}: header differs from {paths[0]}; "
                    "refusing to mix schemas"
                )
            for row in reader:
                if len(row) != len(header):
                    raise ValidationError(
                        f"{path}: row with {len(row)} cells, expected {len(header)}"
                    )
                records.append(dict(zip(header, row)))
    if not records:
        raise ValidationError("metrics files contain no data rows")
    p = 0
    while f"ise_{p + 1}" in header:
        p += 1
    if p == 0:
        raise SchemaError("no ise_<j> columns found")
    return header, records, p


@dataclass(frozen=True)
class StudySummary:
    """Grouped cells: one row per (covariance, n, variant, metric, coefficient)."""

    rows: tuple            # SUMMARY_COLUMNS; coefficient None for aise
    p: int
    n_raw_rows: int
    footnotes: tuple


def build_summary(metrics_paths) -> StudySummary:
    """Aggregate per-rep metrics CSVs into grouped mean/sd cells.

    Squared-error cells come out multiplied by 100.  Duplicate (group, rep)
    rows are rejected so every cell is traceable to distinct replications.
    """
    _, records, p = _read_metrics(metrics_paths)

    value_cols = ["aise"] + [
        f"{name}_{j + 1}" for name in _PER_COEFFICIENT for j in range(p)
    ]
    groups: dict = {}
    for rec in records:
        try:
            key = (rec["covariance"], int(rec["n"]), rec["variant"])
            rep = int(rec["rep"])
            values = {c: float(rec[c]) for c in value_cols}
        except (KeyError, ValueError) as exc:
            raise ValidationError(f"bad metrics row {rec}: {exc}") from exc
        bucket = groups.setdefault(key, {})
        if rep in bucket:
            raise ValidationError(f"duplicate rep {rep} for group {key}")
        bucket[rep] = values

    rows = []
    single_rep = False
    for key in sorted(groups):
        bucket = groups[key]
        reps = sorted(bucket)
        count = len(reps)
        if count == 1:
            single_rep = True
        for col in value_cols:
            vals = np.array([bucket[r][col] for r in reps], dtype=float)
            mean = float(vals.mean())
            sd = float(vals.std(ddof=1)) if count > 1 else 0.0
            base, _, suffix = col.partition("_")
            coef = int(suffix) if suffix else None
            if base in _SCALED:
                mean, sd = 100.0 * mean, 100.0 * sd
            rows.append((*key, base, coef, mean, sd, count))

    footnotes = ["ISE and AISE cells are scaled by 100."]
    if single_rep:
        footnotes.append("sd is reported as 0 for groups with a single replication.")

    return StudySummary(
        rows=tuple(rows),
        p=p,
        n_raw_rows=len(records),
        footnotes=tuple(footnotes),
    )


def curves_csv_text(curves: CurveEstimate, scales=None) -> str:
    """Long-format curve table; value columns divided by a positive scale when given.

    Covariate names come from ``curves.covariate_names`` (``z1..zp`` when
    the curve set carries none).  Floats are written with ``repr`` so
    ``read_curve_table`` reproduces them exactly.
    """
    p = curves.beta_hat.shape[0]
    names = curves.covariate_names or tuple(f"z{j + 1}" for j in range(p))
    lines = [",".join(CURVE_COLUMNS)]
    for j, name in enumerate(names):
        s = 1.0 if scales is None else float(scales[j])
        for g in range(curves.grid.size):
            lines.append(
                ",".join(
                    (
                        name,
                        repr(float(curves.grid[g])),
                        repr(float(curves.theta_hat[j, g]) / s),
                        repr(float(curves.beta_hat[j, g]) / s),
                        repr(float(curves.sigma_hat[j, g]) / s),
                        repr(float(curves.ci_lower[j, g]) / s),
                        repr(float(curves.ci_upper[j, g]) / s),
                        "true" if curves.zero_flags[j, g] else "false",
                    )
                )
            )
    return "\n".join(lines) + "\n"


def read_curve_table(path, level: float = 0.95) -> CurveEstimate:
    """One curve CSV as a curve set, arrays shaped (p, grid).

    The table carries no fallback column, so ``fallback`` is all False;
    ``level`` is recorded as given.
    """
    if not 0.0 < level < 1.0:
        raise ValidationError(f"level must lie in (0, 1), got {level}")
    path = str(path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        got = tuple(reader.fieldnames or ())
        missing = [c for c in CURVE_COLUMNS if c not in got]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}")
        rows = list(reader)
    if not rows:
        raise ValidationError(f"{path}: no data rows")

    names = []
    for row in rows:
        if row["covariate"] not in names:
            names.append(row["covariate"])
    by_name = {name: [r for r in rows if r["covariate"] == name] for name in names}
    sizes = {len(v) for v in by_name.values()}
    if len(sizes) != 1:
        raise ValidationError(f"{path}: covariates have unequal grid sizes")

    def column(field: str, conv) -> np.ndarray:
        try:
            return np.array(
                [[conv(r[field]) for r in by_name[n]] for n in names]
            )
        except ValueError as exc:
            raise ValidationError(f"{path}: bad value in column {field}: {exc}") from exc

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
        covariate_names=tuple(names),
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
    stack = np.array(
        [(t.ci_lower <= truth) & (truth <= t.ci_upper) for t in tables],
        dtype=float,
    )
    return {
        "names": first.covariate_names,
        "grid": first.grid,
        "coverage": stack.mean(axis=0),
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
    lines = [",".join(SUMMARY_COLUMNS)]
    for cov, n, variant, metric, coef, mean, sd, reps in summary.rows:
        coef_txt = "" if coef is None else str(coef)
        lines.append(f"{cov},{n},{variant},{metric},{coef_txt},{mean!r},{sd!r},{reps}")
    return "\n".join(lines) + "\n"
