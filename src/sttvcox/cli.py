"""Command-line front end.

Four subcommands: ``fit`` estimates effect curves from a survival CSV,
``cv`` selects the segment count by cross-validation, ``simulate`` runs a
seeded replication study, and ``score`` computes the metric battery for
an externally produced curve file.

Settings come from an optional JSON config file plus flags; flags win.
Every command first builds all of its settings, so a bad one exits 2
before anything is written; then it creates the output directory and
writes ``manifest.json`` before any result file.  All files are written
atomically (temp file plus rename), with the mode the umask gives.
Outputs are deterministic given inputs and seed, except for the manifest
timestamp.

Exit codes: 0 success, 2 validation problems, 3 numeric failure, 4
non-convergence.  The environment variable STTV_LOG sets the log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .coxph import _require_variances, fit_coxph
from .dataset import _atomic_write, _table_text, load_csv, make_dataset
from .errors import ConvergenceError, NumericError, ValidationError
from .inference import CurveEstimate, _curve_set
from .model_selection import DEFAULT_CANDIDATES, cross_validate, cv_candidates
from .optimizer import VARIANTS, FitConfig, estimate_curves, fit
from .reporting import (
    SUMMARY_COLUMNS,
    curves_csv_text,
    metric_rows,
    metrics_header,
    read_curve_table,
    render_markdown,
    report_row,
    study_summary,
)
from .simulation import Scenario, replicate, score, validate_study

logger = logging.getLogger(__name__)

_DEFAULT_K = 5
_DEFAULT_GRID_POINTS = 200
# interval level of the fit commands' curves; simulate defaults to it
_LEVEL = 0.95

# Scenario settings a config may give; simulate and score read them alike
_SCENARIO_FLOATS = ("baseline_hazard", "censor_upper", "admin_censor")
_SCENARIO_KEYS = ("n", "covariance", "seed") + _SCENARIO_FLOATS
# the exit codes of the module docstring, per failure type, matched in this order
_EXIT_CODES = {ConvergenceError: 4, NumericError: 3, ValidationError: 2, OSError: 2}


def _setup_logging() -> None:
    name = os.environ.get("STTV_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s"
    )


class _Config(dict):
    """A JSON config object that records each key asked for by ``get`` or ``in``;
    nested objects (a study's ``scenario`` and ``fit`` blocks) record their own."""

    def __init__(self, doc: dict):
        super().__init__((k, _Config(v) if isinstance(v, dict) else v) for k, v in doc.items())
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def unread(self, prefix: str = "") -> list:
        names = []
        for key, value in self.items():
            if key not in self.read:
                names.append(prefix + key)
            elif isinstance(value, _Config):
                names += value.unread(f"{prefix}{key}.")
        return names


def _load_config(path) -> _Config:
    if path is None:
        return _Config({})
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"config {path} must hold a JSON object")
    return _Config(doc)


def _merged(args, config: dict, key: str, default):
    """Flag value if given, else config value, else default."""
    value = config.get(key)
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    return default if value is None else value


def _int(value) -> int:
    """int(value), refusing a bool and a float with a fractional part."""
    out = int(value)
    if isinstance(value, bool) or isinstance(value, float) and out != value:
        raise ValueError("not a whole number")
    return out


def _cast(kind, value, key: str):
    """kind(value) for one setting; a bool, also in a list, or a bad value is a ValidationError."""
    try:
        if any(isinstance(v, bool) for v in (value if isinstance(value, list) else [value])):
            raise ValueError("a bool is not a number")
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad {key} setting {value!r}: {exc}") from exc


def _setting(args, config: dict, key: str, default, kind):
    """``_merged`` converted by kind; None stays None."""
    value = _merged(args, config, key, default)
    return None if value is None else _cast(kind, value, key)


def _switch(args, config: dict, key: str) -> bool:
    """A switch set by its flag or by a JSON true or false config value."""
    value = config.get(key, False)
    if not isinstance(value, bool):
        raise ValidationError(f"{key} setting must be true or false, got {value!r}")
    return getattr(args, key, False) or value


def _require(value, what: str):
    if value is None:
        raise ValidationError(f"{what} is required")
    return value


def _jsonable(obj):
    """Recursively convert arrays and numpy scalars; non-finite -> None."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if np.isfinite(x) else None
    return obj


def _write_json(path: str, doc) -> None:
    _atomic_write(path, json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n")


def _open_output(args, config: dict, seed: int) -> str:
    """Create the output directory and write its manifest; returns the directory.

    Each command calls this once, after building every setting it reads, so
    a config key that nothing read is unknown to the command.
    """
    outdir = _require(_merged(args, config, "output", None), "--output")
    unknown = config.unread()
    if unknown:
        raise ValidationError(f"config {args.config} has unknown keys {unknown}")
    os.makedirs(outdir, exist_ok=True)
    doc = {
        "command": args.command,
        "config_path": args.config,
        "input_path": getattr(args, "input", None),
        "output_dir": outdir,
        "seed": int(seed),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    _write_json(os.path.join(outdir, "manifest.json"), doc)
    return outdir


def _load_input(args, config: dict):
    """The survival CSV named by --input, truncated at --tau when given; fit
    and cv read it, and both need at least one event and a --tau no later
    than the last observed time."""
    input_path = _require(_merged(args, config, "input", None), "--input")
    ds = load_csv(input_path, tau=_setting(args, config, "tau", None, float))
    if ds.n_events == 0:
        raise ValidationError(f"{input_path}: no events to fit")
    last = float(ds.time[-1])
    if ds.tau > last:
        # the spline knots would spread over follow-up without data
        raise ValidationError(
            f"--tau {ds.tau} is past the last observed time {last} in {input_path}"
        )
    return ds


def _fit_grid(args, config: dict, tau: float) -> np.ndarray:
    """Midpoints of --grid-points equal subintervals of [0, tau]."""
    points = _setting(args, config, "grid_points", _DEFAULT_GRID_POINTS, _int)
    if points < 1:
        raise ValidationError(f"grid points must be >= 1, got {points}")
    return (np.arange(points) + 0.5) * (tau / points)


def _standardized(ds):
    """(dataset on the standardized scale, per-column scale divisors)."""
    Z = ds.covariates
    means = Z.mean(axis=0)
    scales = Z.std(axis=0)
    flat = np.flatnonzero(scales == 0)
    if flat.size:
        raise ValidationError(
            f"cannot standardize constant covariate {ds.covariate_names[flat[0]]!r}"
        )
    std = make_dataset(
        ds.time,
        ds.event,
        (Z - means) / scales,
        tau=ds.tau,
        covariate_names=ds.covariate_names,
    )
    return std, means, scales


def _fit_config(args, config: dict, K: int, p: int, seed: int, variant: str) -> FitConfig:
    """The fit settings of a command; K is the command's own (``cv`` gives its
    first candidate)."""
    override = _setting(args, config, "alpha_override", None,
                        lambda v: np.asarray(v, dtype=float).ravel())
    if override is not None:
        if override.size not in (1, p):
            raise ValidationError(
                f"alpha_override needs 1 or {p} values, got {override.size}"
            )
        if override.size == 1:
            override = np.repeat(override, p)
        override = tuple(float(a) for a in override)
    return FitConfig(
        K=K,
        eta=_setting(args, config, "eta", 1e-3, float),
        rho=_setting(args, config, "rho", None, float),
        alpha_scale=_setting(args, config, "alpha_scale", 0.5, float),
        alpha_override=override,
        variant=variant,
        multistart=_setting(args, config, "multistart", 1, _int),
        seed=seed,
    )


def _model_doc(model, standardize_doc) -> dict:
    warm = model.warm_start
    return {
        "variant": model.config.variant,
        "config": {
            "K": model.config.K,
            "degree": model.config.d,
            "eta": model.config.eta,
            "rho": model.rho,
            "alpha_scale": model.config.alpha_scale,
            "alpha_override": model.config.alpha_override,
            "tol_grad": model.config.tol_grad,
            "max_iter": model.config.max_iter,
            "multistart": model.config.multistart,
            "seed": model.config.seed,
        },
        "knots": model.basis.knots,
        "alphas": model.alphas,
        "gamma_hat": model.gamma_hat,
        "convergence": {
            "converged": model.converged,
            "iterations": model.n_iter,
            "final_grad_norm": model.final_grad_norm,
            "stop_reason": model.stop_reason,
            "final_objective": model.loglik_path[-1],
        },
        "warm_start": None
        if warm is None
        else {
            "beta": warm.beta,
            "loglik": warm.loglik,
            "iterations": warm.iterations,
            "converged": warm.converged,
        },
        "covariate_names": model.covariate_names,
        "n": model.n,
        "p": model.p,
        "tau": model.tau,
        "standardize": standardize_doc,
        "version": __version__,
    }


def _fit_model(ds, cfg: FitConfig):
    """fit(ds, cfg) for fit and cv --refit; an unconverged model logs one WARNING."""
    model = fit(ds, cfg)
    if not model.converged:
        logger.warning(
            "fit did not converge: stop reason %s, gradient max-norm %.3e",
            model.stop_reason, model.final_grad_norm,
        )
    return model


def _write_fit_outputs(outdir: str, doc: dict, curves: CurveEstimate, scales=None) -> None:
    """model.json and curves.csv, shared by fit and cv --refit."""
    _write_json(os.path.join(outdir, "model.json"), doc)
    _atomic_write(os.path.join(outdir, "curves.csv"), curves_csv_text(curves, scales))


def cmd_fit(args, config: dict) -> int:
    ds = _load_input(args, config)
    seed = _setting(args, config, "seed", 0, _int)
    variant = _merged(args, config, "variant", "sttv")
    if variant not in VARIANTS + ("coxph",):
        raise ValidationError(
            f"variant must be one of {VARIANTS + ('coxph',)}, got {variant!r}"
        )
    # coxph ignores the spline settings, but they are still read and checked
    K = _setting(args, config, "K", _DEFAULT_K, _int)
    cfg = _fit_config(args, config, K, ds.p, seed, "sttv" if variant == "coxph" else variant)
    ds_fit, standardize_doc, scales = ds, None, None
    if _switch(args, config, "standardize"):
        ds_fit, means, scales = _standardized(ds)
        standardize_doc = {"means": means, "scales": scales}
    grid = _fit_grid(args, config, ds.tau)

    outdir = _open_output(args, config, seed)

    if variant == "coxph":
        fitres = fit_coxph(ds_fit)
        _require_variances(ds_fit, fitres)
        # the constant effects, repeated across the grid, without thresholds
        se = np.sqrt(np.diag(fitres.covariance))
        theta, sig = (np.repeat(a[:, None], grid.size, axis=1) for a in (fitres.beta, se))
        curves = _curve_set(grid, theta, sig, None, _LEVEL, ds.covariate_names)
        doc = {
            "variant": "coxph",
            "beta": fitres.beta,
            "covariance": fitres.covariance,
            "loglik": fitres.loglik,
            "iterations": fitres.iterations,
            "converged": fitres.converged,
            "zero_information": fitres.zero_information,
            "covariate_names": ds.covariate_names,
            "n": ds.n,
            "p": ds.p,
            "tau": ds.tau,
            "standardize": standardize_doc,
            "version": __version__,
        }
    else:
        model = _fit_model(ds_fit, cfg)
        curves = estimate_curves(model, grid, _LEVEL)
        doc = _model_doc(model, standardize_doc)

    _write_fit_outputs(outdir, doc, curves, scales)
    return 0


def cmd_cv(args, config: dict) -> int:
    seed = _setting(args, config, "seed", 0, _int)
    folds = _setting(args, config, "folds", 10, _int)
    variant = _merged(args, config, "variant", "sttv")
    candidates = _setting(args, config, "candidates", DEFAULT_CANDIDATES,
                          lambda ks: tuple(_int(k) for k in ks))

    ds = _load_input(args, config)
    candidates = cv_candidates(candidates, folds, ds.n)
    cfg = _fit_config(args, config, candidates[0], ds.p, seed, variant)
    refit = _switch(args, config, "refit")
    grid = _fit_grid(args, config, ds.tau)

    outdir = _open_output(args, config, seed)

    result = cross_validate(ds, cfg, candidates=candidates, folds=folds, seed=seed)
    _write_json(
        os.path.join(outdir, "cv.json"),
        {
            "candidates": result.candidates,
            "cv_error": result.cv_error,
            "per_fold": result.per_fold,
            "chosen_K": result.chosen_K,
            "failed": result.failed,
            "folds": folds,
            "seed": seed,
            "variant": variant,
            "version": __version__,
        },
    )

    if refit:
        model = _fit_model(ds, replace(cfg, K=result.chosen_K))
        curves = estimate_curves(model, grid, _LEVEL)
        _write_fit_outputs(outdir, _model_doc(model, None), curves)
    return 0


def _scenario(doc: dict, seed_flag) -> Scenario:
    """Scenario from a config's scenario keys; a --seed flag wins."""
    if "n" not in doc:
        raise ValidationError("scenario.n is required")
    seed = doc.get("seed", 0)
    kwargs = {
        "n": _cast(_int, doc["n"], "n"),
        "covariance": str(doc.get("covariance", "ind")).lower(),
        "seed": _cast(_int, seed_flag if seed_flag is not None else seed, "seed"),
    }
    for key in _SCENARIO_FLOATS:
        if key in doc:
            kwargs[key] = _cast(float, doc[key], key)
    return Scenario(**kwargs)


def _study_pieces(args, config: dict):
    scenario_doc = config.get("scenario")
    if not isinstance(scenario_doc, dict):
        raise ValidationError('simulate config needs a "scenario" object')
    scenario = _scenario(scenario_doc, args.seed)

    variants = config.get("variants", list(VARIANTS))
    if args.variant is not None:
        variants = [args.variant]
    if not isinstance(variants, list):
        raise ValidationError(
            f"variants setting must be a JSON list, got {type(variants).__name__} {variants!r}"
        )

    fit_doc = config.get("fit", {})
    if not isinstance(fit_doc, dict):
        raise ValidationError('"fit" must be an object of fit settings')
    K = _setting(args, fit_doc, "K", _DEFAULT_K, _int)
    configs = [
        _fit_config(args, fit_doc, K, scenario.p, scenario.seed, variant)
        for variant in variants
    ]

    if "reps" not in config:
        raise ValidationError('simulate config needs "reps"')
    reps = _cast(_int, config["reps"], "reps")
    level = _setting(args, config, "level", _LEVEL, float)
    jobs = _setting(args, config, "jobs", 1, _int)
    validate_study(scenario, configs, reps, jobs, level=level)
    dump = _switch(args, config, "dump_curves")
    return scenario, configs, reps, level, jobs, dump


def cmd_simulate(args, config: dict) -> int:
    scenario, configs, reps, level, jobs, dump = _study_pieces(args, config)
    outdir = _open_output(args, config, scenario.seed)

    result = replicate(
        scenario, configs, reps, level=level, jobs=jobs, keep_curves=dump
    )
    header, rows = metric_rows(result)
    _atomic_write(os.path.join(outdir, "metrics.csv"), _table_text(header, rows))

    # a study in which every replication failed keeps only its failure record
    summary = study_summary(result)
    _write_json(
        os.path.join(outdir, "summary.json"),
        {
            "cells": [dict(zip(SUMMARY_COLUMNS, row)) for row in summary.rows],
            "footnotes": summary.footnotes if summary.rows else (),
            "failed_reps": [list(f) for f in result.failures],
            "coverage": {
                "grid": result.grid,
                **{v: result.coverage_mean[v] for v in result.variants},
            },
            "scenario": {key: getattr(scenario, key) for key in _SCENARIO_KEYS},
            "reps": reps,
            "level": level,
            "variants": result.variants,
            "version": __version__,
        },
    )
    if not summary.rows:
        raise NumericError(f"every replication failed ({len(result.failures)} failures)")
    _atomic_write(os.path.join(outdir, "summary.md"), render_markdown(summary))

    if dump and result.curves is not None:
        for variant in result.variants:
            for rep, curves in sorted(result.curves[variant].items()):
                path = os.path.join(outdir, f"curves_rep{rep:04d}_{variant}.csv")
                _atomic_write(path, curves_csv_text(curves))
    return 0


def cmd_score(args, config: dict) -> int:
    input_path = _require(_merged(args, config, "input", None), "--input")
    if "covariance" not in config or "n" not in config:
        raise ValidationError('score config needs "covariance" and "n"')
    scenario = _scenario(config, args.seed)
    variant = str(config.get("variant", "external"))
    rep = _setting(args, config, "rep", 0, _int)

    curves = read_curve_table(input_path)
    report = score(curves, scenario)

    outdir = _open_output(args, config, scenario.seed)
    row = report_row(report, scenario.covariance, scenario.n, variant, rep)
    text = _table_text(metrics_header(scenario.p), [row])
    _atomic_write(os.path.join(outdir, "metrics.csv"), text)
    return 0


def _parse_candidates(text: str):
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise argparse.ArgumentTypeError("candidate list is empty")
    try:
        return tuple(int(s) for s in items)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_common(sp, *, data: bool, fitting: bool) -> None:
    # commands without a data CSV (simulate, score) are driven by a config
    sp.add_argument("--config", required=not data,
                    help="JSON config file; flags override its values")
    sp.add_argument("--output", help="output directory (created if missing)")
    sp.add_argument("--seed", type=int, help="base random seed")
    if data:
        sp.add_argument("--input", help="input CSV path")
        sp.add_argument("--tau", type=float, help="administrative horizon")
    if fitting:
        sp.add_argument("--alpha-scale", type=float, help="threshold scale factor")
        sp.add_argument(
            "--alpha-override", type=float, help="explicit threshold for every covariate"
        )
        sp.add_argument("--eta", type=float, help="surrogate smoothing parameter")
        sp.add_argument("--rho", type=float, help="ridge penalty weight")
        sp.add_argument("--multistart", type=int, help="number of jittered starts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sttvcox",
        description="Sparse time-varying effect Cox models with zero-region detection",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("fit", help="fit effect curves on a survival CSV")
    _add_common(sp, data=True, fitting=True)
    sp.add_argument("--K", type=int, help="spline segment count")
    sp.add_argument(
        "--variant", choices=VARIANTS + ("coxph",), help="model variant to fit"
    )
    sp.add_argument("--grid-points", type=int, help="points on the output curve grid")
    sp.add_argument(
        "--standardize",
        action="store_true",
        help="fit on standardized covariates, report on the original scale",
    )
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("cv", help="choose the segment count by cross-validation")
    _add_common(sp, data=True, fitting=True)
    sp.add_argument("--variant", choices=VARIANTS, help="model variant to tune")
    sp.add_argument(
        "--candidates", type=_parse_candidates, help="comma-separated segment counts"
    )
    sp.add_argument("--folds", type=int, help="number of folds")
    sp.add_argument("--grid-points", type=int, help="curve grid size for --refit")
    sp.add_argument(
        "--refit", action="store_true", help="fit at the chosen K and write curves"
    )
    sp.set_defaults(func=cmd_cv)

    sp = sub.add_parser("simulate", help="run a seeded replication study")
    _add_common(sp, data=False, fitting=True)
    sp.add_argument("--K", type=int, help="spline segment count")
    sp.add_argument(
        "--variant", choices=VARIANTS, help="restrict the study to one variant"
    )
    sp.add_argument("--jobs", type=int, help="parallel worker processes")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("score", help="score an external curve file against the truth")
    _add_common(sp, data=False, fitting=False)
    sp.add_argument("--input", help="curves CSV to score")
    sp.set_defaults(func=cmd_score)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    return _guarded(lambda: args.func(args, _load_config(args.config)))


def _guarded(run) -> int:
    """run(), or for a failure of a type in _EXIT_CODES one stderr line and its code.

    ``main`` and the full reproduction script exit through it alike.
    """
    try:
        return run()
    except tuple(_EXIT_CODES) as exc:
        print(f"error [{type(exc).__name__}] {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    raise SystemExit(main())
