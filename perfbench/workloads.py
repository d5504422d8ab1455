"""The three benchmark workloads: inputs, one operation, and output checks.

Each workload builds its inputs in ``setup``, runs one operation per
``run_op`` call, counts the model fits an operation completed, and checks
the operation's outputs.  Checks come in two kinds: the program's own
certificate (the fit converged with gradient max-norm below ``tol_grad``,
curves are finite, every interval contains its point estimate), and
agreement with reference values recorded by ``record_reference.py``.

Why the inputs do not depend on the seed: a Newton fit's cost follows its
iteration and line-search counts, and these change with the smallest
change of input.  Datasets drawn from one scenario differ in fit cost by
up to 3x.  Even the same dataset with its rows in another order changes
the path: tied censoring times reach the risk-set sums in another order,
and for the ind dataset in the row order
``numpy.random.default_rng([4, 0]).permutation(1000)`` the sttv fit stalls
at gradient max-norm 2.5e-6.  A run of half a minute averages too few
fits for seed-to-seed medians to stay within the benchmark's bounds, so
every workload gives the program the same simulated studies at every
seed, and the reference values apply at every seed.  The seed only
rotates the order of the ``fit-scan`` cycle.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

import sttvcox
import sttvcox.cli

# every dataset comes from the package's benchmark scenario at this seed
CORPUS_SEED = 0

GAMMA_ATOL = 1e-10      # the fitted-coefficient gate of the project roadmap
VALUE_RTOL = 1e-8       # held-out errors and replication metrics

SIZES = {
    "full": {
        "fit-scan": {"n": 1000, "K": 3, "grid": 100},
        "cli-cv": {"n": 400, "candidates": "3,13", "folds": 3},
        "cli-simulate": {"n": 500, "K": 3, "reps": 8, "jobs": 2},
    },
    "toy": {
        "fit-scan": {"n": 200, "K": 2, "grid": 20},
        "cli-cv": {"n": 160, "candidates": "2,3", "folds": 2},
        "cli-simulate": {"n": 200, "K": 2, "reps": 2, "jobs": 2},
    },
}


def _finite_and_contained(theta, beta, sigma, lower, upper) -> list:
    problems = []
    for label, arr in (("theta_hat", theta), ("beta_hat", beta), ("sigma_hat", sigma),
                       ("ci_lower", lower), ("ci_upper", upper)):
        if not np.isfinite(arr).all():
            problems.append(f"non-finite {label}")
    outside = ~((lower <= beta) & (beta <= upper))
    if outside.any():
        problems.append(f"{int(outside.sum())} intervals exclude their point estimate")
    return problems


def _close(a, b, rtol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def _gamma_problems(label, got, want) -> list:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: gamma_hat shape {got.shape} != reference {want.shape}"]
    diff = float(np.max(np.abs(got - want)))
    if diff > GAMMA_ATOL:
        return [f"{label}: gamma_hat differs from reference by {diff:.3e}"]
    return []


def _flags_text(flags) -> list:
    return ["".join("1" if f else "0" for f in row) for row in np.asarray(flags)]


def _read_curves_csv(path):
    """(theta, beta, sigma, lower, upper) columns of a curve CSV, flattened."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    cols = ("theta_hat", "beta_hat", "sigma_hat", "ci_lower", "ci_upper")
    return [np.array([float(r[c]) for r in rows]) for c in cols]


class FitScan:
    """``sttvcox.fit`` then ``estimate_curves`` on in-memory datasets.

    One operation fits one dataset with both variants (``sttv`` then
    ``regtv``, each followed by curves on a grid over [0, tau]); the
    cycle visits the ind, ar1 and cs datasets.  Both variants share an
    operation because a thresholded fit costs several times a plain one,
    and the median of an even mix of the two would fall in the gap between
    them.
    """

    name = "fit-scan"
    covariances = ("ind", "ar1", "cs")
    variants = ("sttv", "regtv")
    pool_jobs = 0

    def __init__(self, size: dict):
        self.size = size
        self.cycle = len(self.covariances)

    def setup(self, seed: int, workdir: str):
        datasets = [
            sttvcox.generate(
                sttvcox.Scenario(n=self.size["n"], covariance=cov, seed=CORPUS_SEED))
            for cov in self.covariances
        ]
        return {"datasets": datasets, "start": int(seed) % self.cycle}

    def key(self, state, i: int) -> str:
        return self.covariances[(state["start"] + i) % self.cycle]

    def run_op(self, state, i: int, outdir: str):
        ds = state["datasets"][(state["start"] + i) % self.cycle]
        grid = np.linspace(0.0, ds.tau, self.size["grid"])
        out = {}
        for variant in self.variants:
            model = sttvcox.fit(ds, sttvcox.FitConfig(K=self.size["K"], variant=variant))
            out[variant] = (model, sttvcox.estimate_curves(model, grid))
        return out

    def fits(self, result) -> int:
        return len(result)

    def check(self, state, i, result) -> list:
        problems = []
        for variant, (model, curves) in result.items():
            label = f"{self.key(state, i)}/{variant}"
            if not model.converged:
                problems.append(f"{label}: fit did not converge ({model.stop_reason})")
            if not model.final_grad_norm < model.config.tol_grad:
                problems.append(f"{label}: gradient max-norm {model.final_grad_norm:.3e}")
            problems += [f"{label}: {p}" for p in _finite_and_contained(
                curves.theta_hat, curves.beta_hat, curves.sigma_hat,
                curves.ci_lower, curves.ci_upper)]
        return problems

    def reference_entry(self, state, i, result) -> dict:
        return {
            f"{self.key(state, i)}/{variant}": {
                "gamma_hat": model.gamma_hat.tolist(),
                "zero_flags": _flags_text(curves.zero_flags),
            }
            for variant, (model, curves) in result.items()
        }

    def compare(self, entry: dict, ref: dict) -> list:
        problems = []
        for label, got in entry.items():
            want = ref.get(label)
            if want is None:
                problems.append(f"{label}: no reference value")
                continue
            problems += _gamma_problems(label, got["gamma_hat"], want["gamma_hat"])
            if got["zero_flags"] != want["zero_flags"]:
                problems.append(f"{label}: zero_flags differ from reference")
        return problems


class CliCv:
    """``sttvcox cv --refit`` on a CSV, run in process through ``cli.main``."""

    name = "cli-cv"
    pool_jobs = 0
    cycle = 1

    def __init__(self, size: dict):
        self.size = size

    def setup(self, seed: int, workdir: str):
        ds = sttvcox.generate(
            sttvcox.Scenario(n=self.size["n"], covariance="ar1", seed=CORPUS_SEED)
        )
        path = os.path.join(workdir, "cv-input.csv")
        sttvcox.save_csv(ds, path)
        return {"input": path}

    def run_op(self, state, i: int, outdir: str):
        rc = sttvcox.cli.main([
            "cv", "--input", state["input"], "--candidates", self.size["candidates"],
            "--folds", str(self.size["folds"]), "--refit", "--seed", "0",
            "--output", outdir,
        ])
        if rc != 0:
            raise RuntimeError(f"sttvcox cv exited with code {rc}")
        with open(os.path.join(outdir, "cv.json")) as fh:
            cv = json.load(fh)
        with open(os.path.join(outdir, "model.json")) as fh:
            model = json.load(fh)
        curves = _read_curves_csv(os.path.join(outdir, "curves.csv"))
        return {"cv": cv, "model": model, "curves": curves}

    def fits(self, result) -> int:
        # fold fits of the candidates that did not fail, plus the refit
        cv = result["cv"]
        return cv["folds"] * (len(cv["candidates"]) - len(cv["failed"])) + 1

    def check(self, state, i, result) -> list:
        cv, model = result["cv"], result["model"]
        problems = []
        usable = [k for k in cv["candidates"] if k not in cv["failed"]]
        if cv["chosen_K"] not in usable:
            problems.append(f"chosen_K {cv['chosen_K']} is not a usable candidate")
        for k, err in zip(cv["candidates"], cv["cv_error"]):
            if k in usable and (err is None or not math.isfinite(err)):
                problems.append(f"cv_error for K={k} is not finite")
        conv = model["convergence"]
        if not conv["converged"]:
            problems.append(f"refit did not converge ({conv['stop_reason']})")
        if not conv["final_grad_norm"] < model["config"]["tol_grad"]:
            problems.append(f"refit gradient max-norm {conv['final_grad_norm']:.3e}")
        problems += _finite_and_contained(*result["curves"])
        return problems

    def reference_entry(self, state, i, result) -> dict:
        return {
            "chosen_K": result["cv"]["chosen_K"],
            "cv_error": result["cv"]["cv_error"],
            "gamma_hat": result["model"]["gamma_hat"],
        }

    def compare(self, entry: dict, ref: dict) -> list:
        problems = []
        if entry["chosen_K"] != ref["chosen_K"]:
            problems.append(f"chosen_K {entry['chosen_K']} != reference {ref['chosen_K']}")
        if len(entry["cv_error"]) != len(ref["cv_error"]) or not all(
                _close(a, b, VALUE_RTOL) for a, b in zip(entry["cv_error"], ref["cv_error"])):
            problems.append("cv_error differs from reference")
        problems += _gamma_problems("refit", entry["gamma_hat"], ref["gamma_hat"])
        return problems


class CliSimulate:
    """``sttvcox simulate`` on a study config, run in process through ``cli.main``.

    The study uses a process pool of ``jobs`` workers, so this is the one
    workload that needs two cores.
    """

    name = "cli-simulate"
    cycle = 1
    variants = ("sttv", "regtv")

    def __init__(self, size: dict):
        self.size = size
        self.pool_jobs = size["jobs"]

    def setup(self, seed: int, workdir: str):
        path = os.path.join(workdir, "study.json")
        study = {
            "scenario": {"n": self.size["n"], "covariance": "ar1", "seed": CORPUS_SEED},
            "variants": list(self.variants),
            "fit": {"K": self.size["K"]},
            "reps": self.size["reps"],
            "jobs": self.size["jobs"],
            "dump_curves": True,
        }
        with open(path, "w") as fh:
            json.dump(study, fh, indent=2)
        return {"config": path}

    def run_op(self, state, i: int, outdir: str):
        rc = sttvcox.cli.main(["simulate", "--config", state["config"], "--output", outdir])
        if rc != 0:
            raise RuntimeError(f"sttvcox simulate exited with code {rc}")
        with open(os.path.join(outdir, "metrics.csv"), newline="") as fh:
            metrics = list(csv.reader(fh))
        with open(os.path.join(outdir, "summary.json")) as fh:
            failed = json.load(fh)["failed_reps"]
        curves = {
            name: _read_curves_csv(os.path.join(outdir, name))
            for name in sorted(os.listdir(outdir)) if name.startswith("curves_rep")
        }
        return {"metrics": metrics, "failed_reps": failed, "curves": curves}

    def fits(self, result) -> int:
        return self.size["reps"] * len(self.variants) - len(result["failed_reps"])

    def check(self, state, i, result) -> list:
        problems = []
        rows = result["metrics"][1:]
        failed = {(int(r), v) for r, v, _ in result["failed_reps"]}
        expected = {(r, v) for r in range(self.size["reps"]) for v in self.variants}
        present = {(int(row[3]), row[2]) for row in rows}
        if present != expected - failed:
            problems.append("metrics.csv rows do not cover every unfailed replication")
        if len(result["curves"]) != len(expected - failed):
            problems.append(f"{len(result['curves'])} curve files for "
                            f"{len(expected - failed)} unfailed replications")
        for name, cols in result["curves"].items():
            problems += [f"{name}: {p}" for p in _finite_and_contained(*cols)]
        return problems

    def reference_entry(self, state, i, result) -> dict:
        return {"metrics": result["metrics"], "failed_reps": result["failed_reps"]}

    def compare(self, entry: dict, ref: dict) -> list:
        problems = []
        if entry["failed_reps"] != ref["failed_reps"]:
            problems.append("failed replications differ from reference")
        got, want = entry["metrics"], ref["metrics"]
        if len(got) != len(want) or got[0] != want[0]:
            return problems + ["metrics.csv layout differs from reference"]
        for row, ref_row in zip(got[1:], want[1:]):
            if row[:4] != ref_row[:4] or not all(
                    _close(a, b, VALUE_RTOL) for a, b in zip(row[4:], ref_row[4:])):
                problems.append(f"metrics.csv row {row[:4]} differs from reference")
        return problems


WORKLOADS = {cls.name: cls for cls in (FitScan, CliCv, CliSimulate)}


def make(name: str, size: str = "full"):
    return WORKLOADS[name](SIZES[size][name])
