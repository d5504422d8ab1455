"""Clamped B-spline bases on [0, tau] with equally spaced interior knots.

A basis of polynomial degree d over K equal segments has q = K + d
functions.  Evaluation uses the Cox-de Boor recursion, vectorized over the
evaluation points.  The half-open interval convention is used, except that
the last segment is closed so t = tau is well defined (there the final
basis function equals 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class SplineBasis:
    """Knot grid plus evaluation machinery for ``q = K + d`` basis functions.

    K = q - degree is the number of equal-width polynomial pieces; there
    are K - 1 interior knots at k * tau / K.  ``knots`` is the full clamped
    vector with each endpoint repeated degree + 1 times.
    """

    degree: int
    tau: float
    knots: np.ndarray
    q: int


def make_basis(K: int, d: int, tau: float) -> SplineBasis:
    """Build the clamped basis with K equal segments of degree d on [0, tau]."""
    if int(K) != K or K < 1:
        raise ValidationError(f"K must be an integer >= 1, got {K}")
    if int(d) != d or d < 1:
        raise ValidationError(f"degree must be an integer >= 1, got {d}")
    tau = float(tau)
    if not np.isfinite(tau) or tau <= 0:
        raise ValidationError(f"tau must be positive and finite, got {tau}")
    K, d = int(K), int(d)
    interior = tau * np.arange(1, K) / K
    knots = np.concatenate([np.zeros(d + 1), interior, np.full(d + 1, tau)])
    knots.flags.writeable = False
    return SplineBasis(degree=d, tau=tau, knots=knots, q=K + d)


def _design(knots: np.ndarray, degree: int, t: np.ndarray) -> np.ndarray:
    """Cox-de Boor recursion for all q basis functions at each point of t."""
    n_knots = knots.size
    q = n_knots - degree - 1
    # Segment membership; clamp into the positive-width spans so that t = 0
    # and t = tau land on the first and last real segment respectively.
    seg = np.searchsorted(knots, t, side="right") - 1
    seg = np.clip(seg, degree, n_knots - degree - 2)

    work = np.zeros((t.size, n_knots - 1))
    work[np.arange(t.size), seg] = 1.0
    for r in range(1, degree + 1):
        # column i is overwritten only after it has been read; column i+1 is
        # still the order r-1 value when row i uses it
        for i in range(n_knots - r - 1):
            denom_l = knots[i + r] - knots[i]
            denom_r = knots[i + r + 1] - knots[i + 1]
            acc = np.zeros(t.size)
            if denom_l > 0:
                acc += (t - knots[i]) / denom_l * work[:, i]
            if denom_r > 0:
                acc += (knots[i + r + 1] - t) / denom_r * work[:, i + 1]
            work[:, i] = acc
    return work[:, :q]


def eval_basis_grid(basis: SplineBasis, grid) -> np.ndarray:
    """Rows of basis vectors, one per grid point (len(grid) x q)."""
    grid = np.asarray(grid, dtype=float).ravel()
    if grid.size == 0:
        return np.zeros((0, basis.q))
    if not np.isfinite(grid).all():
        raise ValidationError("grid points must be finite")
    if grid.min() < 0.0 or grid.max() > basis.tau:
        raise ValidationError(
            f"grid points outside [0, {basis.tau}]: "
            f"range [{grid.min()}, {grid.max()}]"
        )
    return _design(basis.knots, basis.degree, grid)
