"""Soft thresholding and its smooth arctan surrogate.

The soft-thresholding operator

    zeta(theta, alpha) = (theta - alpha) 1{theta > alpha}
                       + (theta + alpha) 1{theta < -alpha}

maps the dead zone [-alpha, alpha] to exactly zero.  It is not
differentiable at +-alpha, so optimization runs on the surrogate

    h_eta(theta, alpha) = ((1 + (2/pi) arctan(m/eta)) m
                         + (1 - (2/pi) arctan(p/eta)) p) / 2

with m = theta - alpha and p = theta + alpha.  As eta -> 0 the surrogate
converges to zeta uniformly, with |h_eta - zeta| <= eta + O(eta^3); at
eta = 0 these functions give the exact operator.

First and second derivatives in theta, with u = m/eta and v = p/eta:

    h'  = 1 + (arctan u - arctan v)/pi + (u/(1+u^2) - v/(1+v^2))/pi
    h'' = (2/(pi*eta)) * (1/(1+u^2)^2 - 1/(1+v^2)^2)

Far from both kinks (|u| and |v| above 1e8) the exact limits are
substituted: h equals zeta, h' equals the 0/1 slope of zeta, h'' equals 0.
Clamping both tails jointly keeps the substitution error below 1e-8 * eta;
the two arctan tails carry cancelling eta/pi terms, so clamping only one
of them would lose an eta-sized contribution.

One kernel, ``_effect``, computes h, h' and h'' together from one pass
over the kink geometry, and also serves as the identity map of
unthresholded fits (no alpha).  The likelihood scan calls it directly;
the public functions below are checked views over it.  They broadcast
over numpy arrays and return scalars for scalar input.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

_FAR = 1.0e8


def _effect(theta, alpha, eta: float, order: int = 0):
    """(h, h', h'') at theta, unchecked; entries past ``order`` are None.

    ``alpha`` None is the identity map, ``eta`` 0 the exact zeta (order 0
    only), anything else the surrogate h_eta.
    """
    if alpha is None:
        return (theta,
                np.ones_like(theta) if order >= 1 else None,
                np.zeros_like(theta) if order >= 2 else None)
    m = theta - alpha
    p = theta + alpha
    exact = np.where(theta > alpha, m, np.where(theta < -alpha, p, 0.0))
    if eta == 0.0:
        return exact, None, None
    # far-field quotients may overflow to inf; the far branch replaces them
    with np.errstate(over="ignore"):
        u = m / eta
        v = p / eta
    far = (np.abs(u) > _FAR) & (np.abs(v) > _FAR)
    uc = np.clip(u, -_FAR, _FAR)
    vc = np.clip(v, -_FAR, _FAR)
    au = np.arctan(uc)
    av = np.arctan(vc)
    h = np.where(far, exact, 0.5 * ((1.0 + (2.0 / np.pi) * au) * m
                                    + (1.0 - (2.0 / np.pi) * av) * p))
    if order == 0:
        return h, None, None
    u1 = 1.0 + uc * uc
    v1 = 1.0 + vc * vc
    h1 = np.where(far, np.where(np.abs(theta) > alpha, 1.0, 0.0),
                  1.0 + (au - av) / np.pi + (uc / u1 - vc / v1) / np.pi)
    if order == 1:
        return h, h1, None
    h2 = np.where(far, 0.0, (2.0 / (np.pi * eta)) * (1.0 / u1 ** 2 - 1.0 / v1 ** 2))
    return h, h1, h2


def _checked(theta, alpha, eta, order: int):
    """Entry ``order`` of ``_effect`` after the public argument checks."""
    alpha = np.asarray(alpha, dtype=float)
    if not np.isfinite(alpha).all() or (alpha <= 0).any():
        raise ValidationError("threshold alpha must be positive and finite")
    eta = float(eta)
    if not np.isfinite(eta) or eta < 0:
        raise ValidationError(f"eta must be nonnegative and finite, got {eta}")
    if order >= 1 and eta == 0:
        raise ValidationError("eta = 0: the exact operator is not differentiable")
    theta = np.asarray(theta, dtype=float)
    out = _effect(theta, alpha, eta, order)[order]
    return float(out[()]) if theta.ndim == 0 and alpha.ndim == 0 else out


def soft_threshold(theta, alpha):
    """zeta(theta, alpha): shrink by alpha, truncate the dead zone to 0."""
    return _checked(theta, alpha, 0.0, order=0)


def smooth_threshold(theta, alpha, eta):
    """Smooth surrogate h_eta; exact soft threshold when eta = 0."""
    return _checked(theta, alpha, eta, order=0)


def smooth_threshold_d1(theta, alpha, eta):
    """d h_eta / d theta; requires eta > 0."""
    return _checked(theta, alpha, eta, order=1)


def smooth_threshold_d2(theta, alpha, eta):
    """d^2 h_eta / d theta^2; requires eta > 0."""
    return _checked(theta, alpha, eta, order=2)
