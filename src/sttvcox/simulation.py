"""Synthetic survival studies with piecewise-smooth sparse effect curves.

The benchmark scenario draws three correlated standard normal covariates
and event times from the hazard

    lambda(t | z) = lambda0 * exp(sum_j z_j beta_j(t))

with effect curves

    beta_1(t) = (3 - t^2)            on t <= sqrt(3), else 0
    beta_2(t) = 2 log(t + 0.01)      on t >= 1,       else 0
    beta_3(t) = 2 - 6 / (t + 1)      on t <= 2,       else 0

so each curve has a genuine zero region inside the horizon.  Event times
come from inverse-transform sampling of the cumulative hazard, integrated
by the composite trapezoid rule on a fixed fine grid up to the censoring
cap (a later event time is censored whatever its value); censoring is
uniform(0, 10) capped administratively at t = 3, which is also the
analysis horizon.

Every random quantity derives from a counter-based generator (Philox)
seeded through named streams, with normal draws produced by applying the
package's normal quantile to uniforms.  Replication results are therefore
bitwise reproducible across platforms and across process-pool workers.

The default baseline hazard was chosen once by Monte Carlo scan and then
frozen.  Under this hazard and censoring mechanism the censoring
proportion cannot drop below roughly 0.19 for any lambda0 below 1, so
reaching the target range around 0.12 forces lambda0 above 1.  The
frozen default 1.7 gives a censoring proportion near 0.14 while keeping
enough late events that the spline fit stays stable near the horizon.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .dataset import SurvivalDataset, make_dataset
from .errors import SttvError, ValidationError, check_count, check_positive
from .inference import normal_quantile
from .model_selection import cross_validate, cv_candidates
from .optimizer import _cox_warm_start, estimate_curves, fit

logger = logging.getLogger(__name__)

SQRT3 = float(np.sqrt(3.0))

# Frozen after a Monte Carlo scan that bisected lambda0 on the censoring
# proportion of generated data (n = 40000, seed 2024): censoring ~0.137,
# with enough events near the horizon for stable tail estimates.
DEFAULT_BASELINE_HAZARD = 1.7

COVARIANCES = ("ind", "ar1", "cs")

# metric grid: 100 equally spaced points on [0, admin_censor] including the endpoints
METRIC_GRID_POINTS = 100

_T_MAX = 20.0
_T_STEP = 1e-3
_SUBJECT_CHUNK = 128

# named substream salts
_SALT_COVARIATES = 0xC0
_SALT_EVENT_U = 0xE1
_SALT_CENSOR = 0xCE


def true_beta(j: int, t):
    """Scenario effect curve j (1-based) evaluated at t (vectorized)."""
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    if j == 1:
        out = np.where(t <= SQRT3, 3.0 - t * t, 0.0)
    elif j == 2:
        out = np.where(t >= 1.0, 2.0 * np.log(t + 0.01), 0.0)
    elif j == 3:
        out = np.where(t <= 2.0, 2.0 - 6.0 / (t + 1.0), 0.0)
    else:
        raise ValidationError(f"coefficient index must be 1, 2 or 3, got {j}")
    return float(out[0]) if scalar else out


def _beta1(t):
    return true_beta(1, t)


def _beta2(t):
    return true_beta(2, t)


def _beta3(t):
    return true_beta(3, t)


# module-level functions, not lambdas, so scenarios pickle for jobs > 1
DEFAULT_BETA_FUNCTIONS = (_beta1, _beta2, _beta3)


@dataclass(frozen=True)
class Scenario:
    """Everything that determines one synthetic dataset.

    Every field is checked when a scenario is built, by ``replace`` too, so
    a bad value raises ValidationError there.
    """

    n: int
    covariance: str = "ind"
    seed: int = 0
    baseline_hazard: float = DEFAULT_BASELINE_HAZARD
    censor_upper: float = 10.0
    admin_censor: float = 3.0
    beta_functions: tuple = DEFAULT_BETA_FUNCTIONS

    def __post_init__(self) -> None:
        check_count(self.n, "n")
        if self.covariance not in COVARIANCES:
            raise ValidationError(
                f"covariance must be one of {COVARIANCES}, got {self.covariance!r}"
            )
        check_count(self.seed, "seed", least=0)
        check_positive(self.baseline_hazard, "baseline hazard")
        check_positive(self.censor_upper, "censor_upper")
        check_positive(self.admin_censor, "admin_censor")
        if not self.beta_functions or not all(map(callable, self.beta_functions)):
            raise ValidationError("beta_functions must be a non-empty tuple of callables")

    @property
    def p(self) -> int:
        return len(self.beta_functions)

    def true_curves(self, t) -> np.ndarray:
        """(p, len(t)) values of the effect curves at the times t."""
        return np.vstack([np.asarray(f(t), dtype=float) for f in self.beta_functions])


def metric_grid(scenario: Scenario) -> np.ndarray:
    return np.linspace(0.0, scenario.admin_censor, METRIC_GRID_POINTS)


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), salt))))


def _uniforms(rng: np.random.Generator, shape) -> np.ndarray:
    u = rng.random(shape)
    # keep strictly inside (0, 1) for quantile/log transforms
    return np.clip(u, 1e-300, 1.0 - 2.0**-53)


def covariance_matrix(structure: str, p: int = 3) -> np.ndarray:
    if structure == "ind":
        return np.eye(p)
    idx = np.arange(p)
    if structure == "ar1":
        return 0.5 ** np.abs(idx[:, None] - idx[None, :])
    if structure == "cs":
        return np.where(idx[:, None] == idx[None, :], 1.0, 0.5)
    raise ValidationError(f"unknown covariance structure {structure!r}")


def draw_covariates(n: int, structure: str, seed: int, p: int = 3) -> np.ndarray:
    """Mean-zero multivariate normal rows via inverse-CDF of Philox uniforms."""
    rng = _rng(seed, _SALT_COVARIATES)
    eps = normal_quantile(_uniforms(rng, (int(n), p)))
    L = np.linalg.cholesky(covariance_matrix(structure, p))
    return eps @ L.T


def _invert_cumhaz(Z: np.ndarray, targets: np.ndarray, sc: Scenario,
                   cap: float = np.inf) -> np.ndarray:
    """Solve Lambda(T | z) = target per subject on the trapezoid grid.

    The cumulative hazard is piecewise-linearly interpolated between grid
    points, so the inversion is exact for the interpolant.  The hazard is
    integrated up to the censoring cap only: the grid is the prefix of the
    fixed [0, t_max] grid through one point past the first grid point at or
    after ``cap``, and targets beyond its last value return inf.  Any time
    past the cap is censored either way, so the observed data are those of
    the full grid.  Without a cap below t_max the whole grid is used and
    targets beyond Lambda(t_max) return t_max (such subjects are always
    censored because t_max is far past the administrative cap).
    """
    t_grid = np.linspace(0.0, _T_MAX, int(round(_T_MAX / _T_STEP)) + 1)
    right = None
    if cap < _T_MAX:
        t_grid = t_grid[:int(np.searchsorted(t_grid, cap)) + 2]
        right = np.inf
    curves = sc.true_curves(t_grid)
    out = np.empty(Z.shape[0])
    log_lam0 = np.log(sc.baseline_hazard)
    for s in range(0, Z.shape[0], _SUBJECT_CHUNK):
        chunk = slice(s, min(s + _SUBJECT_CHUNK, Z.shape[0]))
        log_lam = log_lam0 + Z[chunk] @ curves            # (c, T)
        lam = np.exp(log_lam)
        steps = 0.5 * (lam[:, 1:] + lam[:, :-1]) * np.diff(t_grid)
        cum = np.concatenate(
            [np.zeros((lam.shape[0], 1)), np.cumsum(steps, axis=1)], axis=1
        )
        for row, target in enumerate(targets[chunk]):
            out[s + row] = np.interp(target, cum[row], t_grid, right=right)
    return out


def draw_event_time(z, sc: Scenario, u: float) -> float:
    """Inverse-transform event time for one subject from uniform draw u."""
    u = float(u)
    if not 0.0 < u < 1.0:
        raise ValidationError(f"u must lie strictly in (0, 1), got {u}")
    z = np.asarray(z, dtype=float).reshape(1, -1)
    if z.shape[1] != sc.p:
        raise ValidationError(f"covariate vector of length {z.shape[1]}, expected {sc.p}")
    target = -np.log1p(-u)
    return float(_invert_cumhaz(z, np.array([target]), sc)[0])


def generate(sc: Scenario) -> SurvivalDataset:
    """One fully seeded dataset: n rows of (min(Tu, Tc), event flag, z)."""
    Z = draw_covariates(sc.n, sc.covariance, sc.seed, sc.p)
    u_event = _uniforms(_rng(sc.seed, _SALT_EVENT_U), sc.n)
    u_cens = _uniforms(_rng(sc.seed, _SALT_CENSOR), sc.n)

    targets = -np.log1p(-u_event)
    t_event = _invert_cumhaz(Z, targets, sc, cap=sc.admin_censor)
    t_cens = np.minimum(u_cens * sc.censor_upper, sc.admin_censor)

    time = np.minimum(t_event, t_cens)
    event = t_event <= t_cens
    names = tuple(f"z{j + 1}" for j in range(sc.p))
    return make_dataset(time, event, Z, tau=sc.admin_censor, covariate_names=names)


@dataclass(frozen=True)
class MetricReport:
    """Scores of one fitted curve set against the generating truth."""

    ise: np.ndarray        # per coefficient
    aise: float
    etpr: np.ndarray
    etnr: np.ndarray
    itpr: np.ndarray
    itnr: np.ndarray
    coverage: np.ndarray   # (p, grid size) indicator of truth inside the interval
    grid: np.ndarray


def score(curves, sc: Scenario) -> MetricReport:
    """Error and detection metrics of a curve set on the scenario's metric grid.

    The curves must be evaluated on ``metric_grid(sc)``.  Estimation ratios
    compare the zero flags against the truth-zero set; inference ratios ask
    whether the interval excludes (TPR) or contains (TNR) zero.  Empty
    denominators yield nan.
    """
    expected = metric_grid(sc)
    grid = np.asarray(curves.grid, dtype=float).ravel()
    if grid.shape != expected.shape or not np.allclose(grid, expected, atol=1e-12):
        raise ValidationError(
            f"curve grid does not match the {METRIC_GRID_POINTS}-point "
            f"metric grid on [0, {sc.admin_censor}]"
        )
    p = sc.p
    if curves.beta_hat.shape[0] != p:
        raise ValidationError(
            f"{curves.beta_hat.shape[0]} fitted curves for {p} true curves"
        )
    truth = sc.true_curves(grid)
    truth_zero = truth == 0.0

    contains0 = (curves.ci_lower <= 0.0) & (0.0 <= curves.ci_upper)
    covered = (curves.ci_lower <= truth) & (truth <= curves.ci_upper)
    est_zero = curves.zero_flags

    def ratio(mask_num: np.ndarray, mask_den: np.ndarray) -> np.ndarray:
        den = mask_den.sum(axis=1)
        num = (mask_num & mask_den).sum(axis=1)
        return np.where(den > 0, num / np.maximum(den, 1), np.nan)

    ise = np.mean((curves.beta_hat - truth) ** 2, axis=1)
    return MetricReport(
        ise=ise,
        aise=float(ise.mean()),
        etpr=ratio(~est_zero, ~truth_zero),
        etnr=ratio(est_zero, truth_zero),
        itpr=ratio(~contains0, ~truth_zero),
        itnr=ratio(contains0, truth_zero),
        coverage=covered.astype(float),
        grid=grid,
    )


@dataclass(frozen=True)
class StudyResult:
    """Per-rep metric reports plus aggregates for one replication study.

    ``chosen_K`` holds the segment count each report was fitted at: the
    config's K, or the K that cross-validation chose in that replication
    when the study ran with candidates.  Its reps are those of ``reports``.
    """

    scenario: Scenario
    reps: int
    variants: tuple
    reports: dict          # variant -> {rep index -> MetricReport}
    chosen_K: dict         # variant -> {rep index -> K}
    aggregates: dict       # variant -> {metric name -> (mean, sd)} arrays
    coverage_mean: dict    # variant -> (p, grid) mean coverage
    failures: tuple        # (rep, variant, message)
    grid: np.ndarray
    curves: dict | None = None   # variant -> {rep -> CurveEstimate} when kept


def rep_seed(base_seed: int, rep: int) -> int:
    """Deterministic, well-separated per-rep seed."""
    ss = np.random.SeedSequence((int(base_seed), int(rep)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _run_one_rep(args):
    """One replication, every config: (rep, variant -> (report, K, curves), failures)."""
    scenario, configs, rep, level, grid, keep_curves, candidates, folds = args
    sc_r = replace(scenario, seed=rep_seed(scenario.seed, rep))
    ds = generate(sc_r)
    warm = None   # the dataset's Cox warm start, fitted once when first needed
    out = {}
    errors = []
    for cfg in configs:
        try:
            if candidates is not None:
                cv = cross_validate(ds, cfg, candidates, folds, seed=sc_r.seed)
                cfg = replace(cfg, K=cv.chosen_K)
            if warm is None:
                warm = _cox_warm_start(ds)
            model = fit(ds, cfg, _warm=warm)
            curves = estimate_curves(model, grid, level=level)
            out[cfg.variant] = (score(curves, sc_r), cfg.K, curves if keep_curves else None)
        except SttvError as exc:
            errors.append((rep, cfg.variant, str(exc)))
    return rep, out, errors


def _aggregate(values: list) -> tuple:
    arr = np.asarray(values, dtype=float)
    mean = arr.mean(axis=0)
    sd = arr.std(axis=0, ddof=1) if arr.shape[0] > 1 else np.zeros_like(mean)
    return mean, sd


def validate_study(
    scenario: Scenario, configs, reps: int, jobs: int = 1, *,
    level: float = 0.95, candidates=None, folds: int = 10,
) -> None:
    """Raise ValidationError for any study setting ``replicate`` would reject.

    The scenario and configs checked themselves when they were built; this
    checks what ties them into a study: reps, jobs, the interval level, one
    config per variant, one threshold per covariate and the
    cross-validation setting.  Callers that
    write files check a study with this before creating them.
    """
    check_count(reps, "reps")
    check_count(jobs, "jobs")
    if not 0.0 < level < 1.0:
        raise ValidationError(f"level must lie in (0, 1), got {level}")
    variants = tuple(cfg.variant for cfg in configs)
    if not variants:
        raise ValidationError("a study needs at least one config")
    if len(set(variants)) != len(variants):
        raise ValidationError(f"duplicate variant names in configs: {variants}")
    for cfg in configs:
        if cfg.alpha_override is not None and np.size(cfg.alpha_override) != scenario.p:
            raise ValidationError(
                f"{np.size(cfg.alpha_override)} thresholds for {scenario.p} covariates"
            )
    if candidates is not None:
        cv_candidates(candidates, folds, scenario.n)


def replicate(
    scenario: Scenario,
    configs,
    reps: int,
    level: float = 0.95,
    jobs: int = 1,
    keep_curves: bool = False,
    *,
    candidates=None,
    folds: int = 10,
) -> StudyResult:
    """Run seeded replications of (generate, fit, score) and aggregate.

    Each config must carry a distinct variant name and is fitted at its own
    K, unless ``candidates`` is given: then each replication chooses every
    config's K by ``folds``-fold ``cross_validate`` over the candidates,
    with the replication's seed as the fold seed, and ``StudyResult.chosen_K``
    records the choice.  Each replication fits the Cox warm start of its
    dataset once and shares it among the configs' fits, each of which
    applies its variant's fallback rule; the fits are those of separate
    ``fit`` calls.  Every setting is checked before the first rep.
    Failed reps, in cross-validation or in the fit, are recorded and
    excluded from aggregates.  Results are identical for any jobs value
    because every rep derives its own seed.
    """
    configs = list(configs)
    validate_study(scenario, configs, reps, jobs, level=level,
                   candidates=candidates, folds=folds)
    variants = tuple(cfg.variant for cfg in configs)
    grid = metric_grid(scenario)

    tasks = [
        (scenario, configs, r, level, grid, keep_curves, candidates, folds)
        for r in range(reps)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_one_rep, tasks))
    else:
        results = [_run_one_rep(t) for t in tasks]
    results.sort(key=lambda r: r[0])

    reports: dict = {v: {} for v in variants}
    chosen_K: dict = {v: {} for v in variants}
    curve_store: dict = {v: {} for v in variants} if keep_curves else None
    failures: list = []
    for rep, out, errors in results:
        failures.extend(errors)
        for variant, (report, K, curves) in out.items():
            reports[variant][rep] = report
            chosen_K[variant][rep] = K
            if keep_curves:
                curve_store[variant][rep] = curves

    aggregates = {}
    coverage_mean = {}
    for variant in variants:
        reps_here = [reports[variant][r] for r in sorted(reports[variant])]
        if not reps_here:
            aggregates[variant] = {}
            coverage_mean[variant] = None
            continue
        agg = {}
        agg["aise"] = _aggregate([rep.aise for rep in reps_here])
        for name in ("ise", "etpr", "etnr", "itpr", "itnr"):
            agg[name] = _aggregate([getattr(rep, name) for rep in reps_here])
        aggregates[variant] = agg
        coverage_mean[variant] = np.mean([rep.coverage for rep in reps_here], axis=0)

    if failures:
        logger.warning("%d replication failures recorded", len(failures))
    return StudyResult(
        scenario=scenario,
        reps=reps,
        variants=variants,
        reports=reports,
        chosen_K=chosen_K,
        aggregates=aggregates,
        coverage_mean=coverage_mean,
        failures=tuple(failures),
        grid=grid,
        curves=curve_store,
    )
