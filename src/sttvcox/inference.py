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

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .splines import eval_basis_grid
from .threshold import soft_threshold

_SQRT2 = np.sqrt(2.0)

SparseInterval = namedtuple("SparseInterval", ["lower", "upper", "fallback"])
Interval = namedtuple("Interval", ["lower", "upper"])


def normal_cdf(x):
    """Standard normal Phi via the complementary error function."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * _erfc(-x / _SQRT2)
    return float(out[()]) if out.ndim == 0 else out


# Cephes ndtr.c, the code scipy.special.erfc runs: erf(x) = x T(x^2)/U(x^2)
# on |x| < 1, erfc(x) = exp(-x^2) P(|x|)/Q(|x|) on [1, 8) and
# exp(-x^2) R(|x|)/S(|x|) beyond; Q, S and U have an implicit leading 1.
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2


def _polevl(x, coef, monic=False):
    """Horner's rule in Cephes order: a = a*x + c, multiply and add apart."""
    a = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        a = a * x + c
    return a


def _erfc(x: np.ndarray) -> np.ndarray:
    """Elementwise erfc with the bits of scipy.special.erfc (Cephes).

    Each branch runs only on its own elements, so no input warns.  exp is
    the C library's (``math.exp``), as in Cephes: numpy's own vectorized
    exp can differ in the last bit (numpy 2.4 on an AVX-512 CPU did on
    about one input in a hundred).
    """
    flat = x.reshape(-1)
    out = np.full(flat.shape, np.nan)            # NaN stays NaN
    ax = np.abs(flat)

    near = ax < 1.0                              # 1 - erf(x)
    s = flat[near]
    z = s * s
    out[near] = 1.0 - s * _polevl(z, _ERF_T) / _polevl(z, _ERF_U, monic=True)

    far = np.flatnonzero(ax >= 1.0)
    v = flat[far]
    with np.errstate(over="ignore"):             # -inf past |x| = 1.3e154, as in C
        z = -v * v
    under = z < -_MAXLOG
    out[far[under]] = np.where(v[under] < 0.0, 2.0, 0.0)
    far, v, z, av = far[~under], v[~under], z[~under], ax[far[~under]]
    y = np.fromiter(map(math.exp, z.tolist()), float, z.size)
    mid = av < 8.0
    tail = ~mid
    y[mid] = y[mid] * _polevl(av[mid], _ERFC_P) / _polevl(av[mid], _ERFC_Q, monic=True)
    y[tail] = y[tail] * _polevl(av[tail], _ERFC_R) / _polevl(av[tail], _ERFC_S, monic=True)
    # Cephes maps y == 0 to 0 as well, which y already is
    out[far] = np.where(v < 0.0, 2.0 - y, y)
    return out.reshape(x.shape)


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
