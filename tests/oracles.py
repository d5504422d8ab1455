"""Independent reference implementations used only by the test suite.

Everything here is deliberately written the slow, obvious way (explicit
loops, textbook recursions, scipy where it helps) so that agreement with
the package is evidence, not tautology.  Nothing in this file imports
from sttvcox except the dataset container.
"""

import math

import numpy as np
from scipy.interpolate import BSpline
from scipy.optimize import minimize


# ----------------------------------------------------------------------
# B-splines: textbook Cox-de Boor recursion, one basis function at a time
# ----------------------------------------------------------------------

def naive_bspline(knots, degree, k, t):
    """B_{k,degree}(t) by the plain two-term recursion, 0/0 taken as 0."""
    if degree == 0:
        return 1.0 if knots[k] <= t < knots[k + 1] else 0.0
    left = 0.0
    denom = knots[k + degree] - knots[k]
    if denom > 0:
        left = (t - knots[k]) / denom * naive_bspline(knots, degree - 1, k, t)
    right = 0.0
    denom = knots[k + degree + 1] - knots[k + 1]
    if denom > 0:
        right = (knots[k + degree + 1] - t) / denom * naive_bspline(
            knots, degree - 1, k + 1, t
        )
    return left + right


def naive_basis_vector(knots, degree, q, t):
    return np.array([naive_bspline(knots, degree, k, t) for k in range(q)])


# ----------------------------------------------------------------------
# Thresholding operators, straight from their displays
# ----------------------------------------------------------------------

def soft_threshold_ref(theta, alpha):
    if theta > alpha:
        return theta - alpha
    if theta < -alpha:
        return theta + alpha
    return 0.0


def smooth_threshold_ref(theta, alpha, eta):
    minus = theta - alpha
    plus = theta + alpha
    a = (1.0 + (2.0 / math.pi) * math.atan(minus / eta)) * minus
    b = (1.0 - (2.0 / math.pi) * math.atan(plus / eta)) * plus
    return 0.5 * (a + b)


# ----------------------------------------------------------------------
# The array implementations of the surrogate and its two derivatives
# before they shared one kernel, kept (argument checks aside) as bitwise
# references for it, the way tests/test_risk_sets.py keeps the per-event
# risk-set loop
# ----------------------------------------------------------------------

_FAR = 1.0e8


def _maybe_scalar(x, scalar):
    return float(x[()]) if scalar else x


def smooth_threshold_arrays_ref(theta, alpha, eta):
    alpha = np.asarray(alpha, dtype=float)
    theta = np.asarray(theta, dtype=float)
    scalar = theta.ndim == 0 and alpha.ndim == 0
    if float(eta) == 0.0:
        out = np.where(
            theta > alpha,
            theta - alpha,
            np.where(theta < -alpha, theta + alpha, 0.0),
        )
        return _maybe_scalar(out, scalar)
    m = theta - alpha
    p = theta + alpha
    with np.errstate(over="ignore"):
        u = m / eta
        v = p / eta
    far = (np.abs(u) > _FAR) & (np.abs(v) > _FAR)
    uc = np.clip(u, -_FAR, _FAR)
    vc = np.clip(v, -_FAR, _FAR)
    h = 0.5 * ((1.0 + (2.0 / np.pi) * np.arctan(uc)) * m
               + (1.0 - (2.0 / np.pi) * np.arctan(vc)) * p)
    exact = np.where(theta > alpha, m, np.where(theta < -alpha, p, 0.0))
    out = np.where(far, exact, h)
    return _maybe_scalar(out, scalar)


def smooth_threshold_d1_arrays_ref(theta, alpha, eta):
    alpha = np.asarray(alpha, dtype=float)
    theta = np.asarray(theta, dtype=float)
    scalar = theta.ndim == 0 and alpha.ndim == 0
    with np.errstate(over="ignore"):
        u = (theta - alpha) / eta
        v = (theta + alpha) / eta
    far = (np.abs(u) > _FAR) & (np.abs(v) > _FAR)
    uc = np.clip(u, -_FAR, _FAR)
    vc = np.clip(v, -_FAR, _FAR)
    d1 = (1.0
          + (np.arctan(uc) - np.arctan(vc)) / np.pi
          + (uc / (1.0 + uc * uc) - vc / (1.0 + vc * vc)) / np.pi)
    limit = np.where(np.abs(theta) > alpha, 1.0, 0.0)
    out = np.where(far, limit, d1)
    return _maybe_scalar(out, scalar)


def smooth_threshold_d2_arrays_ref(theta, alpha, eta):
    alpha = np.asarray(alpha, dtype=float)
    theta = np.asarray(theta, dtype=float)
    scalar = theta.ndim == 0 and alpha.ndim == 0
    with np.errstate(over="ignore"):
        u = (theta - alpha) / eta
        v = (theta + alpha) / eta
    far = (np.abs(u) > _FAR) & (np.abs(v) > _FAR)
    uc = np.clip(u, -_FAR, _FAR)
    vc = np.clip(v, -_FAR, _FAR)
    d2 = (2.0 / (np.pi * eta)) * (1.0 / (1.0 + uc * uc) ** 2
                                  - 1.0 / (1.0 + vc * vc) ** 2)
    out = np.where(far, 0.0, d2)
    return _maybe_scalar(out, scalar)


# ----------------------------------------------------------------------
# Likelihood pieces recomputed from first principles (triple loops)
# ----------------------------------------------------------------------

def risk_set_ref(times, i):
    return [l for l in range(len(times)) if times[l] >= times[i]]


def linear_predictor_ref(gamma, alphas, eta, z, Bt):
    total = 0.0
    for j in range(gamma.shape[0]):
        theta = float(np.dot(Bt, gamma[j]))
        if eta == 0:
            hj = soft_threshold_ref(theta, alphas[j])
        else:
            hj = smooth_threshold_ref(theta, alphas[j], eta)
        total += z[j] * hj
    return total


def penalized_loglik_ref(gamma, alphas, eta, ds, rho, basis_matrix):
    """Smoothed penalized log partial likelihood, no vectorization."""
    times = ds.time
    value = 0.0
    for i in range(ds.n):
        if not ds.event[i]:
            continue
        Bt = basis_matrix[i]
        own = linear_predictor_ref(gamma, alphas, eta, ds.covariates[i], Bt)
        terms = [
            linear_predictor_ref(gamma, alphas, eta, ds.covariates[l], Bt)
            for l in risk_set_ref(times, i)
        ]
        m = max(terms)
        value += own - (m + math.log(sum(math.exp(v - m) for v in terms)))
    penalty = 0.0
    for j in range(gamma.shape[0]):
        for i in range(ds.n):
            penalty += float(np.dot(basis_matrix[i], gamma[j])) ** 2
    return value - rho * penalty


def plain_spline_loglik_ref(gamma, ds, rho, basis_matrix):
    """Same likelihood with the identity map in place of the threshold."""
    times = ds.time
    value = 0.0
    for i in range(ds.n):
        if not ds.event[i]:
            continue
        Bt = basis_matrix[i]
        preds = basis_matrix[i] @ gamma.T  # theta_j(T_i) for all j
        own = float(ds.covariates[i] @ preds)
        terms = [
            float(ds.covariates[l] @ (Bt @ gamma.T))
            for l in risk_set_ref(times, i)
        ]
        m = max(terms)
        value += own - (m + math.log(sum(math.exp(v - m) for v in terms)))
    penalty = sum(
        float(np.dot(basis_matrix[i], gamma[j])) ** 2
        for j in range(gamma.shape[0])
        for i in range(ds.n)
    )
    return value - rho * penalty


def smooth_threshold_d1_ref(theta, alpha, eta, h=1e-7):
    """Slope of the reference surrogate by central difference."""
    return (
        smooth_threshold_ref(theta + h, alpha, eta)
        - smooth_threshold_ref(theta - h, alpha, eta)
    ) / (2.0 * h)


def s_quantities_ref(gamma, alphas, eta, ds, basis_matrix, i):
    """S0, S1, S2 at event index i with the exact chain-rule score vectors."""
    p, q = gamma.shape
    Bt = basis_matrix[i]
    s0 = 0.0
    s1 = np.zeros(p * q)
    s2 = np.zeros((p * q, p * q))
    for l in risk_set_ref(ds.time, i):
        w = math.exp(
            linear_predictor_ref(gamma, alphas, eta, ds.covariates[l], Bt)
        )
        u = np.zeros(p * q)
        for j in range(p):
            theta = float(np.dot(Bt, gamma[j]))
            d1 = smooth_threshold_d1_ref(theta, alphas[j], eta)
            u[j * q:(j + 1) * q] = ds.covariates[l, j] * d1 * Bt
        s0 += w
        s1 += w * u
        s2 += w * np.outer(u, u)
    return s0, s1, s2


def score_covariance_ref(gamma, alphas, eta, ds, basis_matrix):
    p, q = gamma.shape
    total = np.zeros((p * q, p * q))
    for i in range(ds.n):
        if not ds.event[i]:
            continue
        s0, s1, s2 = s_quantities_ref(gamma, alphas, eta, ds, basis_matrix, i)
        mean = s1 / s0
        total += s2 / s0 - np.outer(mean, mean)
    return total


# ----------------------------------------------------------------------
# Constant-coefficient Cox partial likelihood (Breslow), plus a 1-D
# golden-section maximizer for closed-form cross-checks
# ----------------------------------------------------------------------

def coxph_loglik_ref(beta, ds):
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    value = 0.0
    for i in range(ds.n):
        if not ds.event[i]:
            continue
        eta_i = float(ds.covariates[i] @ beta)
        terms = [
            float(ds.covariates[l] @ beta) for l in risk_set_ref(ds.time, i)
        ]
        m = max(terms)
        value += eta_i - (m + math.log(sum(math.exp(v - m) for v in terms)))
    return value


def golden_section_max(f, lo, hi, tol=1e-10):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


# ----------------------------------------------------------------------
# Finite differences
# ----------------------------------------------------------------------

def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def fd_hessian_from_gradient(grad_f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    m = x.size
    H = np.zeros((m, m))
    for k in range(m):
        e = np.zeros_like(x)
        e[k] = h
        H[:, k] = (grad_f(x + e) - grad_f(x - e)) / (2.0 * h)
    return 0.5 * (H + H.T)


# ----------------------------------------------------------------------
# Independent non-thresholded spline Cox fit (scipy basis + scipy BFGS)
# ----------------------------------------------------------------------

def scipy_basis_matrix(times, K, d, tau):
    """Design matrix from scipy's BSpline, clamped knots, K segments."""
    interior = [k * tau / K for k in range(1, K)]
    knots = np.array([0.0] * (d + 1) + interior + [tau] * (d + 1))
    q = K + d
    t = np.minimum(np.asarray(times, dtype=float), tau * (1 - 1e-12))
    cols = []
    for k in range(q):
        coef = np.zeros(q)
        coef[k] = 1.0
        cols.append(BSpline(knots, coef, d)(t))
    return np.column_stack(cols)


def plain_spline_grad_ref(gamma, ds, rho, basis_matrix):
    """Analytic score of the identity-map likelihood, event by event."""
    p, q = gamma.shape
    grad = np.zeros((p, q))
    for i in range(ds.n):
        if not ds.event[i]:
            continue
        Bt = basis_matrix[i]
        theta = gamma @ Bt
        risk = risk_set_ref(ds.time, i)
        Zr = np.asarray([ds.covariates[l] for l in risk])
        lin = Zr @ theta
        w = np.exp(lin - lin.max())
        w = w / w.sum()
        grad += np.outer(ds.covariates[i] - w @ Zr, Bt)
    for j in range(p):
        grad[j] -= 2.0 * rho * (basis_matrix.T @ (basis_matrix @ gamma[j]))
    return grad


def oracle_spline_cox_fit(ds, K, d, rho, maxiter=2000):
    """Maximize the plain (identity-map) spline Cox likelihood with scipy."""
    basis_matrix = scipy_basis_matrix(ds.time, K, d, ds.tau)
    q = K + d
    p = ds.p

    def negloglik(flat):
        gamma = flat.reshape(p, q)
        return -plain_spline_loglik_ref(gamma, ds, rho, basis_matrix)

    def neggrad(flat):
        gamma = flat.reshape(p, q)
        return -plain_spline_grad_ref(gamma, ds, rho, basis_matrix).ravel()

    x0 = np.zeros(p * q)
    res = minimize(negloglik, x0, jac=neggrad, method="BFGS",
                   options={"maxiter": maxiter, "gtol": 1e-8})
    return res.x.reshape(p, q), basis_matrix


def oracle_spline_curves(gamma, K, d, tau, grid):
    basis = scipy_basis_matrix(grid, K, d, tau)
    return basis @ gamma.T  # (|grid|, p)


# ----------------------------------------------------------------------
# Monte Carlo CDF of the thresholded normal
# ----------------------------------------------------------------------

def mc_threshold_cdf(theta_tilde, alpha, sigma, xs, n_draws, seed):
    rng = np.random.default_rng(seed)
    draws = rng.normal(theta_tilde, sigma, size=n_draws)
    out = np.where(draws > alpha, draws - alpha,
                   np.where(draws < -alpha, draws + alpha, 0.0))
    out.sort()
    return np.searchsorted(out, xs, side="right") / n_draws


# ----------------------------------------------------------------------
# Event-time inversion on the full [0, 20] hazard grid, as the generator
# did before it stopped integrating at the censoring cap
# ----------------------------------------------------------------------

def invert_cumhaz_full_grid_ref(Z, targets, sc):
    """Solve Lambda(T | z) = target per subject on the whole trapezoid grid.

    Same grid (20001 points on [0, 20]), same 128-subject chunks and the
    same numpy calls as the generator, so the floats agree wherever the
    event time is not censored; targets beyond Lambda(20) return 20.
    """
    t_grid = np.linspace(0.0, 20.0, 20001)
    curves = sc.true_curves(t_grid)
    out = np.empty(Z.shape[0])
    log_lam0 = np.log(sc.baseline_hazard)
    for s in range(0, Z.shape[0], 128):
        chunk = slice(s, min(s + 128, Z.shape[0]))
        lam = np.exp(log_lam0 + Z[chunk] @ curves)
        steps = 0.5 * (lam[:, 1:] + lam[:, :-1]) * np.diff(t_grid)
        cum = np.concatenate(
            [np.zeros((lam.shape[0], 1)), np.cumsum(steps, axis=1)], axis=1
        )
        for row, target in enumerate(targets[chunk]):
            out[s + row] = np.interp(target, cum[row], t_grid)
    return out
