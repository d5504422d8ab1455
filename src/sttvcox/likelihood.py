"""Smoothed, ridge-penalized log partial likelihood and its derivatives.

The objective maximized over the p x q spline coefficient matrix gamma is

    PL(gamma) = sum_{i: event} [ g(Z_i, T_i) - log sum_{l in R_i} exp(g(Z_l, T_i)) ]
                - rho * sum_j sum_{i=1..n} (B(T_i)' gamma_j)^2

where g(z, t) = sum_j z_j * h_eta(B(t)' gamma_j, alpha_j), R_i is the risk
set {l : T_l >= T_i}, and h_eta is the smooth soft-threshold surrogate.
When thresholds are disabled, h is the identity map and the objective is
the classical ridge-penalized time-varying spline Cox likelihood.

The ridge term runs over all n observations, events and censored alike.
Inner log-sum-exp terms subtract the risk-set maximum before
exponentiating, so the value stays finite for coefficient norms far beyond
anything an optimizer visits.

Derivatives are exact.  With per-event weights w_l over the risk set,
weighted mean Ebar_j of Z_.j, weighted covariance V_jk of (Z_.j, Z_.k),
and h', h'' evaluated at theta_j(T_i) = B(T_i)' gamma_j:

    grad block j    = sum_events (Z_ij - Ebar_j) h'_j B(T_i)  -  2 rho P gamma_j
    hess block j,k  = sum_events [ (Z_ij - Ebar_j) h''_j 1{j=k}
                                   - V_jk h'_j h'_k ] B(T_i) B(T_i)'
                      - 2 rho P 1{j=k}

with P = sum_i B(T_i) B(T_i)' the penalty Gram matrix.  The score
covariance (the meat of the sandwich variance) is the plain event sum

    Sigma block j,k = sum_events V_jk h'_j h'_k B(T_i) B(T_i)'.

Stacked vectors and matrices order coefficient block j at entries
j*q .. (j+1)*q - 1.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .dataset import SurvivalDataset
from .errors import NumericError, ValidationError
from .splines import SplineBasis, eval_basis_grid
from .threshold import _effect

logger = logging.getLogger(__name__)

# cap on the event-block x subject matrix built per chunk (float64 count)
_CHUNK_BUDGET = 4_000_000
# events per block of the risk-set kernel, which holds one block x (n + 1) matrix
_BLOCK_EVENTS = 64


@dataclass(frozen=True)
class CoefficientBlock:
    """Spline coefficients with their thresholding state.

    ``gamma`` holds one row per covariate.  ``thresholds`` is the vector of
    per-covariate soft-threshold levels; ``None`` disables thresholding
    entirely (identity h, the non-thresholded variant).  ``eta`` is the
    surrogate smoothing scale.
    """

    gamma: np.ndarray
    thresholds: np.ndarray | None
    eta: float

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=float)
        if gamma.ndim != 2:
            raise ValidationError("gamma must be a (p, q) matrix")
        if not np.isfinite(gamma).all():
            raise ValidationError("gamma entries must be finite")
        object.__setattr__(self, "gamma", gamma)
        if self.thresholds is not None:
            al = np.asarray(self.thresholds, dtype=float).ravel()
            if al.shape[0] != gamma.shape[0]:
                raise ValidationError(
                    f"{al.shape[0]} thresholds for {gamma.shape[0]} coefficient rows"
                )
            if not np.isfinite(al).all() or (al <= 0).any():
                raise ValidationError("thresholds must be positive and finite")
            object.__setattr__(self, "thresholds", al)
        eta = float(self.eta)
        if not np.isfinite(eta) or eta < 0:
            raise ValidationError(f"eta must be nonnegative and finite, got {eta}")
        object.__setattr__(self, "eta", eta)

    @property
    def p(self) -> int:
        return self.gamma.shape[0]

    @property
    def q(self) -> int:
        return self.gamma.shape[1]


@dataclass(frozen=True)
class LikelihoodWorkspace:
    """Per-dataset caches shared by repeated objective evaluations."""

    basis: SplineBasis
    rho: float
    basis_at_times: np.ndarray   # (n, q), row i = B(T_i) in storage order
    penalty_gram: np.ndarray     # (q, q), sum_i B(T_i) B(T_i)'
    event_rows: np.ndarray       # (m,) storage indices of events
    risk_starts: np.ndarray      # (m,) first storage index of each risk set


def make_workspace(ds: SurvivalDataset, basis: SplineBasis, rho: float) -> LikelihoodWorkspace:
    rho = float(rho)
    if not np.isfinite(rho) or rho < 0:
        raise ValidationError(f"rho must be nonnegative and finite, got {rho}")
    if ds.tau > basis.tau:
        raise ValidationError(
            f"dataset horizon {ds.tau} exceeds basis horizon {basis.tau}"
        )
    B = eval_basis_grid(basis, ds.time)
    events = ds.event_rows
    return LikelihoodWorkspace(
        basis=basis,
        rho=rho,
        basis_at_times=B,
        penalty_gram=B.T @ B,
        event_rows=events,
        risk_starts=ds.risk_start(events),
    )


def _check_dims(cb: CoefficientBlock, ds: SurvivalDataset, ws: LikelihoodWorkspace) -> None:
    if cb.p != ds.p:
        raise ValidationError(f"gamma has {cb.p} rows for {ds.p} covariates")
    if cb.q != ws.basis.q:
        raise ValidationError(f"gamma has {cb.q} columns for basis dimension {ws.basis.q}")
    if ws.basis_at_times.shape[0] != ds.n:
        raise ValidationError("workspace was built from a different dataset")


def linear_predictor(cb: CoefficientBlock, z, Bt) -> float:
    """g(z, t) = sum_j z_j h_eta(B(t)' gamma_j, alpha_j) for one subject."""
    z = np.asarray(z, dtype=float).ravel()
    Bt = np.asarray(Bt, dtype=float).ravel()
    if z.shape[0] != cb.p:
        raise ValidationError(f"covariate vector of length {z.shape[0]}, expected {cb.p}")
    if Bt.shape[0] != cb.q:
        raise ValidationError(f"basis vector of length {Bt.shape[0]}, expected {cb.q}")
    h, _, _ = _effect(cb.gamma @ Bt, cb.thresholds, cb.eta)
    return float(z @ h)


def _risk_set_totals(G: np.ndarray, starts: np.ndarray, Z: np.ndarray, order: int):
    """Breslow risk-set totals of each event, in blocks of _BLOCK_EVENTS events.

    Row e of G holds the linear predictors of all n subjects at event e,
    whose risk set is the suffix ``starts[e]:`` of the time-sorted rows.
    Returns logS0 (m,), the log-sum-exp of the risk-set predictors, and
    for order >= 1 the weighted mean Ebar (m, p) of Z, for order >= 2 the
    weighted covariance V (m, p, p).  Each event subtracts its own
    risk-set maximum before exponentiating.

    Every float equals that of a loop over single events.  A block of k
    events whose first risk-set start is r0 copies G[block, r0:] into a
    (k, n - r0 + 1) matrix behind one leading column, and masks each row
    left of its own start with -inf.  The row max and W = exp(row - max)
    are elementwise, and masked entries become exp(-inf) = 0.
    ``np.add.reduceat`` over [a, b) gives x[a] + pairwise(x[a+1:b]) where
    ``ndarray.sum`` gives pairwise(x), so each row's segment starts on the
    masked zero just before its suffix (hence the leading column); zero
    padding at the row end, or one dense (m, n) matrix, would change the
    pairwise split.  BLAS gemv and gemm are not invariant to zero padding
    either, so the weighted sums of Z stay one product per event, on views
    of W.  The normalizations run once over all events.
    """
    m, n, p = G.shape[0], G.shape[1], Z.shape[1]
    mx = np.zeros(m)
    s0 = np.zeros(m)
    S1 = np.zeros((m, p)) if order >= 1 else None
    S2 = np.zeros((m, p, p)) if order >= 2 else None
    for b0 in range(0, m, _BLOCK_EVENTS):
        rs = starts[b0:b0 + _BLOCK_EVENTS]
        k, r0 = rs.shape[0], int(rs.min())
        block = slice(b0, b0 + k)
        width = n - r0 + 1
        rel = rs - r0                         # column of the zero before each suffix
        W = np.full((k, width), -np.inf)
        np.copyto(W[:, 1:], G[block, r0:], where=np.arange(r0, n) >= rs[:, None])
        mx[block] = top = W.max(axis=1)
        W -= top[:, None]
        np.exp(W, out=W)
        # segment starts interleaved with row starts; the odd segments,
        # masked prefixes of the next row, are dropped
        row = np.arange(k) * width
        idx = np.stack([row + rel, row + width], axis=1).ravel()[:-1]
        s0[block] = np.add.reduceat(W.ravel(), idx)[0::2]
        for i in range(k if order >= 1 else 0):
            w = W[i, rel[i] + 1:]
            Zr = Z[rs[i]:]
            S1[b0 + i] = w @ Zr
            if order >= 2:
                S2[b0 + i] = Zr.T @ (w[:, None] * Zr)
    logS0 = mx + np.log(s0)
    Ebar = S1 / s0[:, None] if order >= 1 else None
    V = S2 / s0[:, None, None] - Ebar[:, :, None] * Ebar[:, None, :] if order >= 2 else None
    return logS0, Ebar, V


def _event_totals(H: np.ndarray, Z: np.ndarray, events: np.ndarray, starts: np.ndarray,
                  order: int):
    """Own predictors and risk-set totals for per-event effect rows H (m, p).

    The predictors H @ Z.T are built in chunks of events so the matrix
    stays within _CHUNK_BUDGET floats.  Returns own_g (m,) and the
    ``_risk_set_totals`` triple.
    """
    chunk = max(1, _CHUNK_BUDGET // max(Z.shape[0], 1))
    parts = []
    # without events one empty chunk still runs and gives the output shapes
    for s in range(0, max(H.shape[0], 1), chunk):
        rows = slice(s, s + chunk)
        G = H[rows] @ Z.T                           # (c, n) predictors at event times
        if not np.isfinite(G).all():
            bad = np.argwhere(~np.isfinite(G))[0]
            raise NumericError(
                f"non-finite linear predictor at observation {int(bad[1])} "
                f"(event {int(s + bad[0])})"
            )
        own_g = G[np.arange(G.shape[0]), events[rows]]
        parts.append((own_g, *_risk_set_totals(G, starts[rows], Z, order)))
    return [None if part[0] is None else np.concatenate(part) for part in zip(*parts)]


def _scan(cb: CoefficientBlock, ds: SurvivalDataset, ws: LikelihoodWorkspace, order: int):
    """One pass over events: per-event risk totals up to the given order.

    Returns own_g, logS0 (both (m,)), and for order >= 1 also Ebar (m, p),
    h1 (m, p); for order >= 2 also V (m, p, p), h2 (m, p).
    """
    _check_dims(cb, ds, ws)
    if cb.thresholds is not None and order >= 1 and cb.eta == 0.0:
        raise ValidationError("derivatives need eta > 0 (exact operator is kinked)")

    B_ev = ws.basis_at_times[ws.event_rows]
    theta = B_ev @ cb.gamma.T                       # (m, p)
    h, h1, h2 = _effect(theta, cb.thresholds, cb.eta, order)
    own_g, logS0, Ebar, V = _event_totals(h, ds.covariates, ws.event_rows,
                                          ws.risk_starts, order)
    return own_g, logS0, Ebar, h1, V, h2, B_ev


def _penalty(cb: CoefficientBlock, ws: LikelihoodWorkspace) -> float:
    return float(np.einsum("ja,ab,jb->", cb.gamma, ws.penalty_gram, cb.gamma))


def _einsum_blocks(M: np.ndarray, B_ev: np.ndarray, p: int, q: int) -> np.ndarray:
    """sum_e M[e, j, k] * B_e B_e' assembled into a (p q, p q) matrix."""
    if B_ev.shape[0] == 0:
        return np.zeros((p * q, p * q))
    out = np.einsum("ejk,ea,eb->jakb", M, B_ev, B_ev, optimize=True)
    return out.reshape(p * q, p * q)


def _evaluate(cb: CoefficientBlock, ds: SurvivalDataset, ws: LikelihoodWorkspace, order: int,
              keep: list | None = None):
    """(value, gradient or None, Hessian or None) from one scan of the given order.

    A ``keep`` list is refilled with the scan's (h', V, event basis rows).
    """
    own_g, logS0, Ebar, h1, V, h2, B_ev = _scan(cb, ds, ws, order)
    if keep is not None:
        keep[:] = (h1, V, B_ev)
    p, q = cb.p, cb.q
    value = float(own_g.sum() - logS0.sum() - ws.rho * _penalty(cb, ws))
    if order == 0:
        return value, None, None
    Z_ev = ds.covariates[ws.event_rows]
    C = (Z_ev - Ebar) * h1                          # (m, p)
    grad = (C.T @ B_ev - 2.0 * ws.rho * (cb.gamma @ ws.penalty_gram)).reshape(-1)
    if order == 1:
        return value, grad, None
    M = -V * h1[:, :, None] * h1[:, None, :]
    M[:, np.arange(p), np.arange(p)] += (Z_ev - Ebar) * h2
    H = _einsum_blocks(M, B_ev, p, q)
    H -= 2.0 * ws.rho * np.kron(np.eye(p), ws.penalty_gram)
    return value, grad, H


def penalized_loglik(cb: CoefficientBlock, ds: SurvivalDataset, ws: LikelihoodWorkspace) -> float:
    """Value of the smoothed penalized log partial likelihood."""
    return _evaluate(cb, ds, ws, order=0)[0]


def gradient(cb: CoefficientBlock, ds: SurvivalDataset, ws: LikelihoodWorkspace) -> np.ndarray:
    """Exact gradient, stacked (p*q,), block j at entries j*q .. (j+1)*q - 1."""
    return _evaluate(cb, ds, ws, order=1)[1]


def hessian(cb: CoefficientBlock, ds: SurvivalDataset, ws: LikelihoodWorkspace) -> np.ndarray:
    """Exact Hessian, (p*q, p*q), symmetric."""
    return _evaluate(cb, ds, ws, order=2)[2]


def score_covariance(cb: CoefficientBlock, ds: SurvivalDataset, ws: LikelihoodWorkspace) -> np.ndarray:
    """Event sum of risk-set score covariances (sandwich meat), (p*q, p*q).

    Block (j, k) is sum over events of V_jk h'_j h'_k B(T_i) B(T_i)'.
    No 1/n normalization is applied; the variance formula downstream
    consumes this raw sum directly.
    """
    _, _, _, h1, V, _, B_ev = _scan(cb, ds, ws, order=2)
    return _score_cov(h1, V, B_ev, cb.p, cb.q)


def _score_cov(h1: np.ndarray, V: np.ndarray, B_ev: np.ndarray, p: int, q: int) -> np.ndarray:
    """The score covariance from the h', V and event basis rows of one order-2 scan."""
    return _einsum_blocks(V * h1[:, :, None] * h1[:, None, :], B_ev, p, q)


def value_and_derivatives(cb: CoefficientBlock, ds: SurvivalDataset, ws: LikelihoodWorkspace,
                          *, _keep: list | None = None):
    """(value, gradient, hessian) sharing a single event scan.

    ``_keep`` is internal to ``fit``: a list refilled with the scan's
    (h', V, event basis rows), so that the sandwich meat at the optimum
    comes from the optimizer's last scan, not from one more.
    """
    return _evaluate(cb, ds, ws, order=2, keep=_keep)
