"""Damped Newton maximization of the penalized objective.

Two variants share the machinery.  The thresholded fit ("sttv") warm
starts at the constant Cox estimates a_j, sets each threshold to
alpha_scale * |a_j| (floored at 1e-3 so a zero warm start cannot produce a
zero threshold), and maximizes the smoothed objective.  The plain
time-varying fit ("regtv") disables thresholding and maximizes the same
ridge-penalized spline likelihood, which is the standard penalized spline
Cox model.

Newton directions come from the negative Hessian with a Levenberg-style
diagonal shift (lambda growing tenfold from 1e-6 whenever the
factorization or the solve fails), followed by Armijo backtracking.  Trial
points of the line search are scored by the objective value alone (an
order-0 event scan); the gradient and Hessian are formed once per accepted
iterate.  The value of that scan is the same float the derivative scan
gives, so scoring trials this way leaves the iterates unchanged.  Every
scan of a fit goes through the risk-set plan of the fit's one workspace
(``likelihood._RiskSets``), which also holds the data-only parts of the
scan.  The plan keeps what its last scan can pass on, so the derivative
scan at the accepted trial reuses that trial's risk-set weights, and the
sandwich meat, ``score_covariance`` at the optimum, reads the last
derivative scan's totals.  A gradient, Hessian or Newton step that
overflows (a rho too large for the data) raises NumericError before any
trial point is built.
Iteration stops when the gradient max-norm drops below tol_grad,
or when the objective stalls (relative change below 1e-10 on three
consecutive iterations); only the gradient criterion sets ``converged``.
Each accepted iteration logs one DEBUG line: objective, gradient max-norm,
damping lambda, step scale, halvings and trial evaluations.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .coxph import CoxFit, fit_coxph, initial_gamma
from .dataset import SurvivalDataset
from .errors import (
    ConvergenceError,
    NumericError,
    SeparationError,
    SttvError,
    ValidationError,
    check_count,
    check_positive,
)
from .inference import CurveEstimate, _curve_set, _variance
from .likelihood import (
    CoefficientBlock,
    LikelihoodWorkspace,
    make_workspace,
    penalized_loglik,
    score_covariance,
    value_and_derivatives,
)
from .splines import SplineBasis, eval_basis_grid, make_basis

logger = logging.getLogger(__name__)

VARIANTS = ("sttv", "regtv")

_ALPHA_FLOOR = 1e-3
_ARMIJO = 1e-4
_MAX_HALVINGS = 30
_STALL_REL = 1e-10
_STALL_RUNS = 3
_COND_WARN = 1e10
_COND_ERROR = 1e14
# The surrogate objective is not concave, so the shifted matrix -H + lam*I
# may need lam beyond |min eig(H)|; tenfold growth over 40 attempts covers
# any magnitude the likelihood can produce before overflowing.
_LAM_MIN = 1e-6
_MAX_DAMPING_ATTEMPTS = 40


@dataclass(frozen=True)
class FitConfig:
    """Tuning scalars for one fit.

    Every field is checked when a config is built, by ``replace`` too, so a
    bad value raises ValidationError there.  ``rho=None`` resolves to 1/n^2
    at fit time.  ``alpha_override`` values are used verbatim (no floor);
    the floor applies only to thresholds derived from the warm start.
    ``multistart`` > 1 adds jittered warm starts and keeps the best
    objective.
    """

    K: int
    d: int = 3
    eta: float = 1e-3
    rho: float | None = None
    alpha_scale: float = 0.5
    alpha_override: tuple | None = None
    tol_grad: float = 1e-6
    max_iter: int = 500
    variant: str = "sttv"
    multistart: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        check_count(self.K, "K")
        check_count(self.d, "d")
        check_positive(self.eta, "eta")
        if self.rho is not None:
            check_positive(self.rho, "rho")
        check_positive(self.alpha_scale, "alpha_scale")
        if self.alpha_override is not None:
            for alpha in np.ravel(self.alpha_override).tolist():
                check_positive(alpha, "alpha_override entry")
        check_positive(self.tol_grad, "tol_grad")
        check_count(self.max_iter, "max_iter")
        if self.variant not in VARIANTS:
            raise ValidationError(
                f"variant must be one of {VARIANTS}, got {self.variant!r}"
            )
        check_count(self.multistart, "multistart")
        check_count(self.seed, "seed", least=0)


@dataclass(frozen=True)
class FittedModel:
    """Optimized coefficients plus everything inference needs.

    ``sandwich`` is H^-1 Sigma H^-1 with H the negative Hessian and Sigma
    the raw score covariance, both at the optimum.  ``loglik_path`` is
    non-decreasing; ``converged`` means the final gradient max-norm beat
    tol_grad (a stall stop returns converged=False).
    """

    config: FitConfig
    basis: SplineBasis
    gamma_hat: np.ndarray
    alphas: np.ndarray | None
    neg_hessian_inv: np.ndarray
    score_cov: np.ndarray
    sandwich: np.ndarray
    loglik_path: np.ndarray
    converged: bool
    warm_start: CoxFit | None
    n: int
    p: int
    tau: float
    rho: float
    n_iter: int
    final_grad_norm: float
    stop_reason: str
    covariate_names: tuple[str, ...] | None = None

    @property
    def q(self) -> int:
        return self.basis.q


def _newton(cb0: CoefficientBlock, ds: SurvivalDataset, ws: LikelihoodWorkspace,
            cfg: FitConfig):
    """Maximize from one starting point; returns (gamma, path, diagnostics).

    The iterate and each line-search trial are built from cb0 by
    ``CoefficientBlock._with_gamma``, which checks only the new gamma:
    their thresholds and eta are cb0's, checked when cb0 was built.  A
    non-finite trial raises the constructor's ValidationError; a step that
    overflows from a finite gradient raises NumericError before any trial.
    """
    p, q = cb0.p, cb0.q
    gamma = cb0.gamma.copy()
    cb = cb0._with_gamma(gamma)
    value, grad, hess = value_and_derivatives(cb, ds, ws)
    gnorm = float(np.max(np.abs(grad)))
    path = [value]
    eye = np.eye(p * q)
    stall = 0
    stop_reason = "max_iter"
    n_iter = 0
    for _ in range(cfg.max_iter):
        if gnorm < cfg.tol_grad:
            stop_reason = "gradient"
            break
        if stall >= _STALL_RUNS:
            stop_reason = "stalled"
            break

        lam = 0.0
        accepted = False
        trials = 0
        for _ in range(_MAX_DAMPING_ATTEMPTS):
            A = -hess + lam * eye if lam else -hess
            try:
                np.linalg.cholesky(A)
                # a matrix cholesky accepts can still be singular to solve
                delta = np.linalg.solve(A, grad)
            except np.linalg.LinAlgError:
                lam = max(10.0 * lam, _LAM_MIN)
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                slope = float(grad @ delta)
            if not np.isfinite(slope) and np.isfinite(grad).all():
                # the step or its product with the gradient overflowed (a
                # non-finite step has a non-finite slope too)
                raise NumericError(
                    f"rho {ws.rho} overflows the Newton step; a smaller rho may help"
                )
            if slope <= 0:
                lam = max(10.0 * lam, _LAM_MIN)
                continue
            scale = 1.0
            for halvings in range(_MAX_HALVINGS + 1):
                trial = gamma + scale * delta.reshape(p, q)
                cb_trial = cb._with_gamma(trial)
                trials += 1
                try:
                    new_value = penalized_loglik(cb_trial, ds, ws)
                except NumericError:
                    new_value = -np.inf
                if new_value >= value + _ARMIJO * scale * slope:
                    accepted = True
                    break
                scale *= 0.5
            if accepted:
                break
            lam = max(10.0 * lam, 1e-4)
        if not accepted:
            raise ConvergenceError(
                "line search failed to make progress", last_iterate=gamma, path=path
            )

        rel = abs(new_value - value) / (abs(value) + 1.0)
        stall = stall + 1 if rel < _STALL_REL else 0
        gamma, cb = trial, cb_trial
        value, grad, hess = value_and_derivatives(cb, ds, ws)
        gnorm = float(np.max(np.abs(grad)))
        path.append(value)
        n_iter += 1
        logger.debug(
            "newton iter %d: objective %.12g, gradient max-norm %.3e, lambda %.1e, "
            "step scale %.6g, halvings %d, trial evaluations %d",
            n_iter, value, gnorm, lam, scale, halvings, trials,
        )
    else:
        if gnorm < cfg.tol_grad:
            stop_reason = "gradient"
        else:
            raise ConvergenceError(
                f"no convergence in {cfg.max_iter} iterations "
                f"(gradient max-norm {gnorm:.3e})",
                last_iterate=gamma,
                path=path,
            )

    return gamma, hess, value, np.array(path), n_iter, gnorm, stop_reason


def _cox_warm_start(ds: SurvivalDataset) -> CoxFit | SttvError:
    """The constant Cox fit of ds, or the ConvergenceError (SeparationError
    included) or NumericError (a singular information matrix) it raised.

    Nothing here depends on the config, so one result serves every variant
    and every K fitted on ds; ``fit`` applies the config's fallback rule.
    """
    if ds.n_events == 0:
        raise ValidationError("cannot fit a dataset with zero events")
    try:
        return fit_coxph(ds)
    except (ConvergenceError, NumericError) as exc:
        return exc


def _warm_for(warm: CoxFit | SttvError, cfg: FitConfig) -> CoxFit | None:
    """cfg's warm start from a ``_cox_warm_start`` result; None starts from zeros.

    A failed Cox fit is re-raised for sttv, unless it hit separation and the
    thresholds are given explicitly; regtv starts from zeros after any failure.
    """
    if not isinstance(warm, SttvError):
        return warm
    if cfg.variant == "sttv":
        if cfg.alpha_override is None or not isinstance(warm, SeparationError):
            raise warm
        logger.warning(
            "warm start hit separation; starting from zero coefficients "
            "with the explicit threshold override"
        )
        return None
    logger.warning("warm start failed (%s); starting from zero coefficients", warm)
    return None


def fit(ds: SurvivalDataset, cfg: FitConfig, *, _warm=None) -> FittedModel:
    """Fit one variant on one dataset; see the module docstring for the recipe.

    ``_warm`` is internal to cross-validation and replication studies: the
    ``_cox_warm_start`` result of ds, shared by the fits of every variant
    and K on ds.  The sandwich meat ``score_cov`` is ``score_covariance``
    at ``gamma_hat``, called on the fit's workspace: it reads the totals of
    the last Newton scan when that ran at ``gamma_hat``, and otherwise (an
    earlier start won) scans once more.
    """
    warm = _warm_for(_cox_warm_start(ds) if _warm is None else _warm, cfg)
    rho = cfg.rho if cfg.rho is not None else 1.0 / ds.n**2
    basis = make_basis(cfg.K, cfg.d, ds.tau)
    ws = make_workspace(ds, basis, rho)
    gamma0 = np.zeros((ds.p, basis.q)) if warm is None else initial_gamma(warm, basis.q)
    alphas: np.ndarray | None = None
    if cfg.variant == "sttv":
        if cfg.alpha_override is not None:
            alphas = np.asarray(cfg.alpha_override, dtype=float).ravel()
        else:
            alphas = np.maximum(cfg.alpha_scale * np.abs(warm.beta), _ALPHA_FLOOR)
        if alphas.shape[0] != ds.p:
            raise ValidationError(
                f"{alphas.shape[0]} thresholds for {ds.p} covariates"
            )

    def starts():
        # each jittered start is drawn just before its fit, so none is held
        yield gamma0
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed)))
        spread = 0.1 * (1.0 + np.abs(gamma0))
        for _ in range(cfg.multistart - 1):
            yield gamma0 + spread * rng.standard_normal(gamma0.shape)

    try:
        best = None
        first_error: ConvergenceError | None = None
        for g0 in starts():
            cb0 = CoefficientBlock(gamma=g0, thresholds=alphas, eta=cfg.eta)
            try:
                result = _newton(cb0, ds, ws, cfg)
            except ConvergenceError as exc:
                first_error = first_error or exc
                continue
            if best is None or result[2] > best[2]:
                best = result
        if best is None:
            raise first_error

        gamma, hess, value, path, n_iter, gnorm, stop_reason = best
        neg_h = -hess
        cond = np.linalg.cond(neg_h)
        if cond > _COND_ERROR:
            raise NumericError(
                f"negative Hessian condition number {cond:.2e} too large; "
                "a larger rho or a smaller K may help"
            )
        if cond > _COND_WARN:
            logger.warning("ill-conditioned negative Hessian (cond %.2e)", cond)
        neg_h_inv = np.linalg.inv(neg_h)
        sigma = score_covariance(CoefficientBlock(gamma=gamma, thresholds=alphas, eta=cfg.eta),
                                 ds, ws)
    finally:
        # the workspace is the fit's own: its scan helper stops here, not
        # when the traceback of a raised error lets the workspace go
        ws.risk_sets.close()
    sandwich = neg_h_inv @ sigma @ neg_h_inv
    sandwich = 0.5 * (sandwich + sandwich.T)

    return FittedModel(
        config=cfg,
        basis=basis,
        gamma_hat=gamma,
        alphas=alphas,
        neg_hessian_inv=neg_h_inv,
        score_cov=sigma,
        sandwich=sandwich,
        loglik_path=path,
        converged=gnorm < cfg.tol_grad,
        warm_start=warm,
        n=ds.n,
        p=ds.p,
        tau=ds.tau,
        rho=rho,
        n_iter=n_iter,
        final_grad_norm=gnorm,
        stop_reason=stop_reason,
        covariate_names=ds.covariate_names,
    )


def estimate_curves(model: FittedModel, grid, level: float = 0.95) -> CurveEstimate:
    """Evaluate effect curves with pointwise errors and intervals on a grid.

    theta_hat_j(t) = B(t)' gamma_hat_j is the spline level, with the
    sandwich standard error of ``inference.curve_variance``; the effect,
    zero flags and intervals come from ``inference._curve_set``: the exact
    soft threshold and sparse intervals for the thresholded variant, theta_hat
    itself and normal intervals otherwise.
    """
    if not 0.0 < level < 1.0:
        raise ValidationError(f"level must lie in (0, 1), got {level}")
    grid = np.asarray(grid, dtype=float).ravel()
    if grid.size == 0:
        raise ValidationError("empty evaluation grid")
    Bg = eval_basis_grid(model.basis, grid)    # validates the range
    sig = np.sqrt([_variance(model, j, Bg) for j in range(model.p)])
    return _curve_set(grid, model.gamma_hat @ Bg.T, sig, model.alphas, level,
                      model.covariate_names)
