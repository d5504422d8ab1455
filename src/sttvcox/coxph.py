"""Constant-coefficient Cox proportional hazards fit by Newton's method.

Supplies the warm start for the spline fits (initial coefficient rows and
the per-covariate threshold scales) and the plain comparison model for
reports.  Ties are handled Breslow style: tied event times share one
risk-set denominator.

Each fit scans through one risk-set plan of its dataset,
``likelihood._RiskSets``, so the per-event views of the scan are made
once per fit, and the derivative scan at an accepted line-search trial
reuses what the plan kept of that trial's scan, by the plan's rule.
Every event sees the same predictors Z beta, so a scan hands the plan
that one row: events whose risk sets share a maximum share one
exponential and one weighted copy of the covariates, and the floats are
those of a scan over one predictor row per event.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import likelihood
from .dataset import SurvivalDataset
from .errors import ConvergenceError, NumericError, SeparationError, ValidationError

logger = logging.getLogger(__name__)

_MAX_HALVINGS = 30
# Newton stops when max |score| < _TOL; _MAX_ITER iterations at most
_TOL = 1e-9
_MAX_ITER = 50
_SEPARATION_BOUND = 20.0


@dataclass(frozen=True)
class CoxFit:
    """Result of the constant-effect fit.

    ``covariance`` is the inverse negative Hessian at the optimum;
    zero-information columns (constant covariates) are excluded from the
    iteration, reported with coefficient 0.0, an infinite variance entry,
    and a True entry in ``zero_information``.
    """

    beta: np.ndarray
    covariance: np.ndarray
    loglik: float
    iterations: int
    converged: bool
    zero_information: np.ndarray


def _loglik_parts(ds: SurvivalDataset, plan: likelihood._RiskSets, beta: np.ndarray,
                  order: int):
    """Breslow partial log likelihood with its gradient and Hessian at
    order 2; order 0 gives the value and two None.

    Risk sets are suffixes of the time-sorted rows, visited per event with
    a local max subtraction, so the value is stable for any bounded beta.
    ``plan`` is the risk-set plan of ds, and the scan runs through its
    entry under beta's bytes (see ``likelihood._RiskSets``).  Every event
    sees the same predictors eta = Z beta, so the scan gets that one row,
    and events with one risk-set maximum share their weights (see
    ``likelihood._shared_weights``).
    """
    Z = ds.covariates
    events = ds.event_rows
    eta = Z @ beta
    own, logS0, Ebar, V = plan.scan(beta.tobytes(), order, [(eta[events], eta, slice(None))])
    # event terms are added one after another, not in the pairwise order of
    # np.sum: the sttv thresholds scale the warm start, and a one-ulp change
    # of a threshold can move a fitted curve by 0.1
    value = np.add.accumulate(own - logS0)[-1]
    if not order:
        return value, None, None
    return value, np.add.accumulate(Z[events] - Ebar)[-1], -np.add.accumulate(V)[-1]


def fit_coxph(ds: SurvivalDataset) -> CoxFit:
    """Newton-Raphson with step halving; converges when max |score| < _TOL."""
    if ds.n_events == 0:
        raise ValidationError("constant Cox fit needs at least one event")
    spread = ds.covariates.max(axis=0) - ds.covariates.min(axis=0)
    active = spread > 0
    plan = likelihood._RiskSets(ds.covariates, ds.risk_start(ds.event_rows))
    if not active.any():
        zero_info = ~active
        cov = np.full((ds.p, ds.p), 0.0)
        np.fill_diagonal(cov, np.inf)
        value, _, _ = _loglik_parts(ds, plan, np.zeros(ds.p), order=0)
        logger.warning("all covariate columns are constant; nothing to fit")
        return CoxFit(np.zeros(ds.p), cov, float(value), 0, True, zero_info)
    if (~active).any():
        logger.warning(
            "constant covariate columns carry no information: %s",
            np.flatnonzero(~active).tolist(),
        )

    beta = np.zeros(ds.p)
    value, grad, hess = _loglik_parts(ds, plan, beta, order=2)
    iterations = 0
    converged = False
    for _ in range(_MAX_ITER):
        if np.max(np.abs(grad[active])) < _TOL:
            converged = True
            break
        H = hess[np.ix_(active, active)]
        try:
            step = np.linalg.solve(-H, grad[active])
        except np.linalg.LinAlgError:
            step = grad[active]  # singular curvature: plain gradient step
        new_beta = beta.copy()
        scale = 1.0
        # near the optimum the objective moves by less than rounding noise,
        # so accept steps within float slack and let the score test decide
        slack = 64.0 * np.finfo(float).eps * (abs(value) + 1.0)
        for _ in range(_MAX_HALVINGS + 1):
            new_beta[active] = beta[active] + scale * step
            new_value, _, _ = _loglik_parts(ds, plan, new_beta, 0)
            if new_value >= value - slack:
                break
            scale *= 0.5
        else:
            raise ConvergenceError(
                "step halving failed to improve the partial likelihood",
                last_iterate=beta.copy(),
            )
        beta = new_beta
        iterations += 1
        if np.max(np.abs(beta[active])) > _SEPARATION_BOUND:
            raise SeparationError(
                "monotone likelihood: a coefficient diverged beyond "
                f"{_SEPARATION_BOUND} (separation)",
                last_iterate=beta.copy(),
            )
        value, grad, hess = _loglik_parts(ds, plan, beta, 2)
    if not converged and np.max(np.abs(grad[active])) >= _TOL:
        raise ConvergenceError(
            f"no convergence in {_MAX_ITER} Newton iterations",
            last_iterate=beta.copy(),
        )

    cov = np.zeros((ds.p, ds.p))
    H = hess[np.ix_(active, active)]
    try:
        cov[np.ix_(active, active)] = np.linalg.inv(-H)
    except np.linalg.LinAlgError:
        raise NumericError(
            "singular information matrix at the constant Cox estimate: covariate "
            f"columns {', '.join(_dependent_columns(ds, active, H))} are constant or "
            "linearly dependent within the risk sets"
        ) from None
    for idx in np.flatnonzero(~active):
        cov[idx, idx] = np.inf
    return CoxFit(
        beta=beta,
        covariance=cov,
        loglik=float(value),
        iterations=iterations,
        converged=True,
        zero_information=~active,
    )


def _dependent_columns(ds: SurvivalDataset, active: np.ndarray, H: np.ndarray) -> list:
    """Names of the active columns in the null space of the information H.

    A column counts when its entry of a singular vector of H, for a
    singular value at numpy's rank tolerance or below, is not negligible.
    All active columns are named if no singular value falls that low.
    """
    _, s, vt = np.linalg.svd(H)
    null = vt[s <= s.max(initial=0.0) * H.shape[0] * np.finfo(float).eps]
    cols = np.flatnonzero(active)
    if null.size:
        size = np.abs(null)
        cols = cols[(size > 1e-8 * size.max(axis=1, keepdims=True)).any(axis=0)]
    names = ds.covariate_names or tuple(f"z{j + 1}" for j in range(ds.p))
    return [names[j] for j in cols]


def _require_variances(ds: SurvivalDataset, fit: CoxFit) -> None:
    """Raise NumericError unless every active column of ``fit``, a fit of
    ds, has a positive, finite variance.

    An information matrix that is singular in exact arithmetic can still
    be inverted by LAPACK once rounded, and its inverse then holds
    variances of either sign.  The columns are named from the information
    at ``fit.beta`` by ``_dependent_columns``.
    """
    active = ~fit.zero_information
    var = np.diag(fit.covariance)[active]
    if (np.isfinite(var) & (var > 0)).all():
        return
    plan = likelihood._RiskSets(ds.covariates, ds.risk_start(ds.event_rows))
    H = _loglik_parts(ds, plan, fit.beta, 2)[2][np.ix_(active, active)]
    raise NumericError(
        "no positive finite variance at the constant Cox estimate: covariate columns "
        f"{', '.join(_dependent_columns(ds, active, H))} are constant or linearly "
        "dependent within the risk sets"
    )


def initial_gamma(fit: CoxFit, q: int) -> np.ndarray:
    """Constant coefficient rows (a_j, ..., a_j): by partition of unity the
    starting curves are theta_j(t) = a_j everywhere."""
    if not fit.converged:
        raise ValidationError("warm start requires a converged constant fit")
    if int(q) != q or q < 1:
        raise ValidationError(f"q must be a positive integer, got {q}")
    return np.tile(fit.beta[:, None], (1, int(q)))
