"""Pointwise variance, the thresholded limit law, sparse intervals, and curve sets.

The fitted spline coefficient vector has sandwich covariance
H^-1 Sigma H^-1, where H is the negative Hessian of the penalized
objective at the optimum and Sigma is the raw event sum of risk-set score
covariances.  The unthresholded curve level theta_j(t) = B(t)' gamma_j is
a linear functional a(t) = e_j (x) B(t) of the coefficients, so its
variance is the quadratic form a(t)' H^-1 Sigma H^-1 a(t).

Thresholding makes the estimator's limit law non-Gaussian: beta_hat_j(t)
= zeta(theta_hat_j(t), alpha_j) concentrates a point mass at zero.  With
centering value theta and scale sigma the limiting distribution function is

    G(x) = Phi((x + alpha - theta)/sigma)  for x >= 0
           Phi((x - alpha - theta)/sigma)  for x <  0

whose jump at zero is the dead-zone mass Pr(|N(theta, sigma^2)| <= alpha).
Confidence intervals that honor the point mass come in four cases driven by
the tail masses P+ = Pr(theta_hat beyond +alpha) and P- = Pr(below -alpha):
both tails negligible gives the degenerate interval [0, 0]; one negligible
tail pins the corresponding endpoint at 0; otherwise the usual two-sided
normal interval around beta_hat applies.  When a case (ii)/(iii) quantile
argument leaves (0, 1) in floating point, the code falls back to the
two-sided case and flags the point (the fallback is conservative).

Every computed curve set, thresholded or not and spline or constant Cox,
is built here by ``_curve_set``: levels and standard errors in, effect,
zero flags and intervals out.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .errors import NumericError, ValidationError
from .splines import eval_basis_grid
from .threshold import soft_threshold

_SQRT2 = np.sqrt(2.0)

SparseInterval = namedtuple("SparseInterval", ["lower", "upper", "fallback"])
Interval = namedtuple("Interval", ["lower", "upper"])


def normal_cdf(x):
    """Standard normal Phi via the complementary error function."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * erfc(-x / _SQRT2)
    return float(out[()]) if out.ndim == 0 else out


def _normal_pdf(x):
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


# Rational approximation coefficients (Acklam) for the normal quantile;
# three regimes stitched at p = 0.02425, then one Newton correction.
_QA = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
       1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_QB = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
       6.680131188771972e+01, -1.328068155288572e+01)
_QC = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
       -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_QD = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
       3.754408661907416e+00)


def _quantile_raw(p: np.ndarray) -> np.ndarray:
    lo = p < 0.02425
    hi = p > 1.0 - 0.02425
    mid = ~(lo | hi)
    x = np.empty_like(p)

    if mid.any():
        r = p[mid] - 0.5
        s = r * r
        num = ((((_QA[0] * s + _QA[1]) * s + _QA[2]) * s + _QA[3]) * s + _QA[4]) * s + _QA[5]
        den = ((((_QB[0] * s + _QB[1]) * s + _QB[2]) * s + _QB[3]) * s + _QB[4]) * s + 1.0
        x[mid] = r * num / den

    for mask, sign in ((lo, 1.0), (hi, -1.0)):
        if mask.any():
            tail = p[mask] if sign > 0 else 1.0 - p[mask]
            r = np.sqrt(-2.0 * np.log(tail))
            num = ((((_QC[0] * r + _QC[1]) * r + _QC[2]) * r + _QC[3]) * r + _QC[4]) * r + _QC[5]
            den = (((_QD[0] * r + _QD[1]) * r + _QD[2]) * r + _QD[3]) * r + 1.0
            x[mask] = sign * num / den
    return x


def normal_quantile(p):
    """Inverse standard normal CDF; rational approximation plus one Newton step."""
    arr = np.asarray(p, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.isfinite(arr).all() or (arr <= 0).any() or (arr >= 1).any():
        raise ValidationError("quantile probability must lie strictly in (0, 1)")
    x = _quantile_raw(arr)
    x = x - (normal_cdf(x) - arr) / _normal_pdf(x)
    return float(x[0]) if scalar else x


def curve_variance(model, j: int, grid) -> np.ndarray:
    """Variance of theta_hat_j(t) at each grid point from the sandwich."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if not 0 <= j < model.p:
        raise ValidationError(f"coefficient index {j} out of range [0, {model.p})")
    return _variance(model, j, eval_basis_grid(model.basis, grid))


def _variance(model, j: int, Bg: np.ndarray) -> np.ndarray:
    """``curve_variance`` at the grid whose basis rows are Bg."""
    q = model.basis.q
    block = model.sandwich[j * q:(j + 1) * q, j * q:(j + 1) * q]
    var = np.einsum("ga,ab,gb->g", Bg, block, Bg)
    if not np.isfinite(var).all() or (var <= 0).any():
        raise NumericError(
            f"degenerate variance for coefficient {j}: no information at some "
            "grid point (larger rho or smaller K may help)"
        )
    return var


def sigma_nj(model, j: int, t: float) -> float:
    """Pointwise standard error of the unthresholded curve level at t."""
    if np.all(model.score_cov == 0.0):
        raise NumericError("score covariance is identically zero (no events): "
                           "sigma is degenerate")
    return float(np.sqrt(curve_variance(model, j, [float(t)])[0]))


def limiting_cdf(x, theta_tilde: float, alpha: float, sigma: float):
    """Distribution function of the soft-thresholded Gaussian limit."""
    alpha = float(alpha)
    sigma = float(sigma)
    if alpha <= 0:
        raise ValidationError(f"alpha must be positive, got {alpha}")
    if sigma <= 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    out = np.where(
        x >= 0,
        normal_cdf((x + alpha - theta_tilde) / sigma),
        normal_cdf((x - alpha - theta_tilde) / sigma),
    )
    return float(out[()]) if scalar else out


def sparse_ci(theta_hat, alpha, sigma, xi: float) -> SparseInterval:
    """Four-case interval for the soft-thresholded estimate, level 1 - xi.

    Vectorized over theta_hat / alpha / sigma (broadcasting); returns
    arrays (or floats for scalar input) plus a fallback flag marking points
    where a one-sided quantile argument left (0, 1) and the two-sided case
    was used instead.
    """
    xi = float(xi)
    if not 0.0 < xi < 1.0:
        raise ValidationError(f"xi must lie in (0, 1), got {xi}")
    theta_hat = np.asarray(theta_hat, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if (alpha <= 0).any():
        raise ValidationError("alpha must be positive")
    if (sigma <= 0).any():
        raise ValidationError("sigma must be positive")
    scalar = theta_hat.ndim == 0 and alpha.ndim == 0 and sigma.ndim == 0
    th, al, sg = np.broadcast_arrays(np.atleast_1d(theta_hat), alpha, sigma)

    beta = soft_threshold(th, al)
    p_plus = 1.0 - normal_cdf((al - th) / sg)
    p_minus = normal_cdf((-al - th) / sg)

    z2 = normal_quantile(1.0 - xi / 2.0)
    lower = beta - sg * z2
    upper = beta + sg * z2
    fallback = np.zeros(th.shape, dtype=bool)

    # case (iii): negative tail negligible, positive not overwhelming
    m3 = (p_minus < xi / 2.0) & (p_plus < 1.0 - xi / 2.0)
    arg3 = xi - 1.0 + normal_cdf((th + al) / sg)
    ok3 = (arg3 > 0.0) & (arg3 < 1.0)
    use3 = m3 & ok3
    if use3.any():
        a_hat = -normal_quantile(np.where(use3, arg3, 0.5))
        lower = np.where(use3, 0.0, lower)
        upper = np.where(use3, beta + sg * a_hat, upper)
    fallback |= m3 & ~ok3

    # case (ii): positive tail negligible, negative not overwhelming
    m2 = (p_plus < xi / 2.0) & (p_minus < 1.0 - xi / 2.0)
    arg2 = 1.0 - xi + normal_cdf((th - al) / sg)
    ok2 = (arg2 > 0.0) & (arg2 < 1.0)
    use2 = m2 & ok2
    if use2.any():
        b_hat = normal_quantile(np.where(use2, arg2, 0.5))
        lower = np.where(use2, beta - sg * b_hat, lower)
        upper = np.where(use2, 0.0, upper)
    fallback |= m2 & ~ok2

    # case (i): both tails jointly negligible, interval pinches to {0}
    m1 = (p_plus + p_minus) <= xi
    lower = np.where(m1, 0.0, lower)
    upper = np.where(m1, 0.0, upper)
    fallback &= ~m1

    if scalar:
        return SparseInterval(float(lower[0]), float(upper[0]), bool(fallback[0]))
    return SparseInterval(lower, upper, fallback)


def wald_ci(theta_hat, sigma, xi: float) -> Interval:
    """Symmetric normal interval theta_hat +- sigma * z_{xi/2}."""
    xi = float(xi)
    if not 0.0 < xi < 1.0:
        raise ValidationError(f"xi must lie in (0, 1), got {xi}")
    theta_hat = np.asarray(theta_hat, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if (sigma <= 0).any():
        raise ValidationError("sigma must be positive")
    z = normal_quantile(1.0 - xi / 2.0)
    lower = theta_hat - sigma * z
    upper = theta_hat + sigma * z
    if lower.ndim == 0:
        return Interval(float(lower), float(upper))
    return Interval(lower, upper)


@dataclass(frozen=True)
class CurveEstimate:
    """Curve-level summaries of a fitted model on an evaluation grid.

    Rows index covariates; columns index grid points.  ``theta_hat`` is the
    unthresholded spline level, ``beta_hat`` the (possibly thresholded)
    effect curve, ``sigma_hat`` its pointwise standard error, and the
    interval columns come from the sparse construction (thresholded fits)
    or the symmetric normal one (non-thresholded fits).  ``fallback`` marks
    grid points where the sparse interval fell back to the two-sided case.
    """

    grid: np.ndarray
    theta_hat: np.ndarray
    beta_hat: np.ndarray
    sigma_hat: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    zero_flags: np.ndarray
    level: float
    fallback: np.ndarray
    covariate_names: tuple[str, ...] | None = None


def _curve_set(grid, theta, sigma, alphas, level: float, names) -> CurveEstimate:
    """The curve set of levels theta (p, G) with standard errors sigma on grid.

    With thresholds ``alphas`` (one per covariate) the effect is the soft
    threshold of theta, flagged zero where it is exactly zero, with
    ``sparse_ci`` intervals; with ``alphas=None`` it is theta itself, with
    ``wald_ci`` intervals and no zero or fallback flags.
    """
    xi = 1.0 - level
    if alphas is not None:
        alphas = alphas[:, None]
        beta = soft_threshold(theta, alphas)
        lower, upper, fallback = sparse_ci(theta, alphas, sigma, xi)
        zero = beta == 0.0
    else:
        beta = theta
        lower, upper = wald_ci(theta, sigma, xi)
        fallback = np.zeros(theta.shape, dtype=bool)
        zero = np.zeros(theta.shape, dtype=bool)

    return CurveEstimate(
        grid=grid,
        theta_hat=theta,
        beta_hat=beta,
        sigma_hat=sigma,
        ci_lower=lower,
        ci_upper=upper,
        zero_flags=zero,
        level=level,
        fallback=fallback,
        covariate_names=names,
    )
