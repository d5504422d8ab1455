"""Constant-coefficient Cox proportional hazards fit by Newton's method.

Supplies the warm start for the spline fits (initial coefficient rows and
the per-covariate threshold scales) and the plain comparison model for
reports.  Ties are handled Breslow style: tied event times share one
risk-set denominator.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .dataset import SurvivalDataset
from .errors import ConvergenceError, SeparationError, ValidationError
from .likelihood import _risk_set_totals

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


def _loglik_parts(ds: SurvivalDataset, beta: np.ndarray, order: int):
    """Breslow partial log likelihood with gradient and Hessian.

    Risk sets are suffixes of the time-sorted rows, visited per event with
    a local max subtraction, so the value is stable for any bounded beta.
    """
    Z = ds.covariates
    events = ds.event_rows
    eta = Z @ beta
    G = np.broadcast_to(eta, (events.shape[0], ds.n))
    logS0, Ebar, V = _risk_set_totals(G, ds.risk_start(events), Z, order)
    # event terms are added one after another, not in the pairwise order of
    # np.sum: the sttv thresholds scale the warm start, and a one-ulp change
    # of a threshold can move a fitted curve by 0.1
    value = np.add.accumulate(eta[events] - logS0)[-1]
    grad = np.add.accumulate(Z[events] - Ebar)[-1] if order >= 1 else None
    hess = -np.add.accumulate(V)[-1] if order >= 2 else None
    return value, grad, hess


def fit_coxph(ds: SurvivalDataset) -> CoxFit:
    """Newton-Raphson with step halving; converges when max |score| < _TOL."""
    if ds.n_events == 0:
        raise ValidationError("constant Cox fit needs at least one event")
    spread = ds.covariates.max(axis=0) - ds.covariates.min(axis=0)
    active = spread > 0
    if not active.any():
        zero_info = ~active
        cov = np.full((ds.p, ds.p), 0.0)
        np.fill_diagonal(cov, np.inf)
        value, _, _ = _loglik_parts(ds, np.zeros(ds.p), order=0)
        logger.warning("all covariate columns are constant; nothing to fit")
        return CoxFit(np.zeros(ds.p), cov, float(value), 0, True, zero_info)
    if (~active).any():
        logger.warning(
            "constant covariate columns carry no information: %s",
            np.flatnonzero(~active).tolist(),
        )

    beta = np.zeros(ds.p)
    value, grad, hess = _loglik_parts(ds, beta, order=2)
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
            new_value, _, _ = _loglik_parts(ds, new_beta, order=0)
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
        value, grad, hess = _loglik_parts(ds, beta, order=2)
    if not converged and np.max(np.abs(grad[active])) >= _TOL:
        raise ConvergenceError(
            f"no convergence in {_MAX_ITER} Newton iterations",
            last_iterate=beta.copy(),
        )

    cov = np.zeros((ds.p, ds.p))
    H = hess[np.ix_(active, active)]
    cov[np.ix_(active, active)] = np.linalg.inv(-H)
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


def initial_gamma(fit: CoxFit, q: int) -> np.ndarray:
    """Constant coefficient rows (a_j, ..., a_j): by partition of unity the
    starting curves are theta_j(t) = a_j everywhere."""
    if not fit.converged:
        raise ValidationError("warm start requires a converged constant fit")
    if int(q) != q or q < 1:
        raise ValidationError(f"q must be a positive integer, got {q}")
    return np.tile(fit.beta[:, None], (1, int(q)))
