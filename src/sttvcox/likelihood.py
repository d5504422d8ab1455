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

from dataclasses import dataclass

import numpy as np

from .dataset import SurvivalDataset, _freeze
from .errors import NumericError, ValidationError
from .splines import SplineBasis, eval_basis_grid
from .threshold import _effect

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


class _RiskSets:
    """The risk-set scans of one dataset: their data-only part and the last
    scan's kept entry.

    ``Z`` holds the (n, p) covariates in storage order and ``starts`` the
    sorted first storage index of each event's risk set.  The plan keeps
    their Python ints and max|Z| from the start; the per-event views of the
    moment products are built when an order >= 1 scan first asks for them.

    ``scan`` keeps one entry for the plan's last scan, under the bytes of
    that scan's predictor inputs (the per-event effect rows of a spline
    scan, beta of a Cox scan), so equal values find it whatever object
    holds them.  An order-0 scan that ``keeps`` stores its own predictors
    and weight blocks; an order-2 scan stores its totals and drops the
    blocks.  A scan under the entry's key uses it in place of predictors
    and weights, with the same floats; a scan under another key drops it
    before forming its own weights, so at most one scan's blocks are held.
    Scans of one plan share its (p, n) buffer and its entry, so they must
    not run concurrently.
    """

    def __init__(self, Z: np.ndarray, starts: np.ndarray):
        self.Z = Z
        self.starts = starts
        self.start_list = starts.tolist()
        # a Python float: inf * 0 gives NaN and an overflow gives inf, without warnings
        self.z_max = float(np.abs(Z).max(initial=0.0))
        self._views = None
        self._kept = None   # (key, own predictors, weight blocks or None, totals or None)

    def keeps(self) -> bool:
        """Whether an order-0 scan keeps its weight blocks: when its m x n
        predictors fit in _CHUNK_BUDGET floats, one chunk."""
        return len(self.start_list) * self.Z.shape[0] <= _CHUNK_BUDGET

    def scan(self, key: bytes, order: int, chunks):
        """[own, logS0, Ebar, V] of the predictors whose inputs have bytes ``key``.

        ``chunks`` yields (own, G, rows) per chunk of events: the predictors
        G of the events ``rows`` and each event's own predictor.  It is read
        only when the kept entry cannot serve.  The totals reach at least
        the asked order, as in ``_risk_set_totals``.
        """
        if self._kept is not None and self._kept[0] != key:
            self._kept = None
        if self._kept is None:
            keep = order == 0 and self.keeps()
            parts = []
            for own, G, rows in chunks:
                blocks = list(_risk_weights(G, self.starts)) if keep else None
                parts.append((own, *_risk_set_totals(G, self, order, blocks, rows)))
            own, *totals = parts[0] if len(parts) == 1 else [
                None if part[0] is None else np.concatenate(part) for part in zip(*parts)]
            if keep:
                self._kept = (key, own, blocks, None)
        else:
            _, own, blocks, totals = self._kept
            if totals is None:
                totals = _risk_set_totals(None, self, order, blocks)
        if order == 2:
            self._kept = (key, own, None, totals)
        return [own, *totals]

    def views(self) -> list:
        """Per event with risk-set start r: (r, Z[r:], Z[r:].T, ZT[:, r:], t, t.T).

        ZT is a C-contiguous copy of Z.T and t = buf[:, :n - r] a view of
        one (p, n) buffer; tied events share one tuple.
        """
        if self._views is None:
            Z = self.Z
            n, p = Z.shape
            ZT = np.ascontiguousarray(Z.T)
            buf = np.empty((p, n))
            by_start = {}
            for r in self.start_list:
                if r not in by_start:
                    Zr, t = Z[r:], buf[:, :n - r]
                    by_start[r] = (r, Zr, Zr.T, ZT[:, r:], t, t.T)
            self._views = [by_start[r] for r in self.start_list]
        return self._views


# the Hessian and score covariance assembly, sum_e M[e, j, k] * B_e B_e'
_BLOCK_SUM = "ejk,ea,eb->jakb"


@dataclass(frozen=True)
class LikelihoodWorkspace:
    """Per-dataset caches shared by repeated objective evaluations.

    Its arrays are read-only, so the windows in ``band_runs`` keep
    covering every nonzero of ``basis_at_events``.
    """

    basis: SplineBasis
    rho: float
    basis_at_times: np.ndarray   # (n, q), row i = B(T_i) in storage order
    penalty_gram: np.ndarray     # (q, q), sum_i B(T_i) B(T_i)'
    event_rows: np.ndarray       # (m,) storage indices of events
    basis_at_events: np.ndarray  # (m, q), rows event_rows of basis_at_times
    covariates_at_events: np.ndarray  # (m, p), rows event_rows of the covariates
    penalty_kron: np.ndarray     # (p q, p q), kron(I_p, penalty_gram)
    block_sum_path: list | None  # einsum path of _BLOCK_SUM; None without events
    band_runs: tuple             # see _band_runs; () off the band path
    risk_sets: _RiskSets
    dataset: SurvivalDataset     # the dataset the workspace was built from


def _band_runs(B_ev: np.ndarray) -> tuple:
    """The windows of w columns that hold the nonzeros of the basis rows B_ev.

    w is the widest span from a row's first to its last nonzero, and event
    e's window starts at its first nonzero column lo_e, clamped to q - w.
    Returns one (a, b, lo_e, lo_e + w) per maximal run a..b-1 of events
    with one window.
    """
    m, q = B_ev.shape
    nz = B_ev != 0.0
    first = nz.argmax(axis=1)
    last = q - 1 - nz[:, ::-1].argmax(axis=1)
    w = int((last - first).max()) + 1
    lo = np.minimum(first, q - w)
    cut = (np.flatnonzero(np.diff(lo)) + 1).tolist()
    return tuple((a, b, int(lo[a]), int(lo[a]) + w) for a, b in zip([0, *cut], [*cut, m]))


def make_workspace(ds: SurvivalDataset, basis: SplineBasis, rho: float) -> LikelihoodWorkspace:
    """Everything about ds and the basis that the scans of one fit share.

    Besides the basis rows and the penalty, the workspace holds the event
    rows of the basis and covariates, kron(I_p, P), the einsum path of the
    Hessian assembly and the risk-set plan of ds, whose per-event views are
    built once, at the first derivative scan, and which keeps what its last
    scan can pass to the next (see ``_RiskSets``).  When that path
    contracts all three operands at once, as it does for the p >= 2 shapes
    of the paper and the benchmark, the workspace also keeps the windows
    of nonzero basis columns that ``_block_sum`` sums over.  A dataset
    without events gets an empty plan and no path.  All arrays are
    read-only.
    """
    rho = float(rho)
    if not np.isfinite(rho) or rho < 0:
        raise ValidationError(f"rho must be nonnegative and finite, got {rho}")
    if ds.tau > basis.tau:
        raise ValidationError(
            f"dataset horizon {ds.tau} exceeds basis horizon {basis.tau}"
        )
    B = eval_basis_grid(basis, ds.time)
    P = B.T @ B
    events = ds.event_rows
    B_ev = B[events]
    m, p = events.shape[0], ds.p
    path, runs = None, ()
    if m:
        # the path depends on shapes only
        path = np.einsum_path(_BLOCK_SUM, np.broadcast_to(0.0, (m, p, p)), B_ev, B_ev,
                              optimize="greedy")[0]
        if path[1:] == [(0, 1, 2)]:
            runs = _band_runs(B_ev)
    return LikelihoodWorkspace(
        basis=basis,
        rho=rho,
        basis_at_times=_freeze(B),
        penalty_gram=_freeze(P),
        event_rows=_freeze(events),
        basis_at_events=_freeze(B_ev),
        covariates_at_events=_freeze(ds.covariates[events]),
        penalty_kron=_freeze(np.kron(np.eye(p), P)),
        block_sum_path=path,
        band_runs=runs,
        risk_sets=_RiskSets(ds.covariates, ds.risk_start(events)),
        dataset=ds,
    )


def _check_dims(cb: CoefficientBlock, ds: SurvivalDataset, ws: LikelihoodWorkspace) -> None:
    if cb.p != ds.p:
        raise ValidationError(f"gamma has {cb.p} rows for {ds.p} covariates")
    if cb.q != ws.basis.q:
        raise ValidationError(f"gamma has {cb.q} columns for basis dimension {ws.basis.q}")
    built = ws.dataset
    if ds is not built and not all(map(np.array_equal, (ds.time, ds.event, ds.covariates),
                                       (built.time, built.event, built.covariates))):
        raise ValidationError("workspace was built from a different dataset")


def _risk_weights(G: np.ndarray, starts: np.ndarray):
    """Yields (W, row max, s0) per block of _BLOCK_EVENTS events (fewer in the last).

    W is the block's (k, n + 1 - r0) matrix of exp(predictor - row max)
    behind one leading zero column, where r0 = n + 1 - W.shape[1] is the
    block's first risk-set start; s0 holds its risk-set sums.  See
    ``_risk_set_totals``.  G[block, r0:] is copied whole, and only the
    columns left of the block's last start are then masked.
    """
    m, n = G.shape
    for b0 in range(0, m, _BLOCK_EVENTS):
        rs = starts[b0:b0 + _BLOCK_EVENTS]
        k, r0 = rs.shape[0], int(rs.min())
        width = n - r0 + 1
        rel = rs - r0                         # column of the zero before each suffix
        W = np.empty((k, width))
        W[:, 1:] = G[b0:b0 + k, r0:]
        pre = int(rel.max()) + 1
        np.copyto(W[:, :pre], -np.inf, where=np.arange(pre) <= rel[:, None])
        top = W.max(axis=1)
        W -= top[:, None]
        np.exp(W, out=W)
        # segment starts interleaved with row starts; the odd segments,
        # masked prefixes of the next row, are dropped
        row = np.arange(k) * width
        idx = np.stack([row + rel, row + width], axis=1).ravel()[:-1]
        yield W, top, np.add.reduceat(W.ravel(), idx)[0::2]


def _risk_set_totals(G: np.ndarray | None, plan: _RiskSets, order: int,
                     blocks: list | None = None, rows: slice = slice(None)):
    """Breslow risk-set totals of the plan's events ``rows``, in blocks of
    _BLOCK_EVENTS events.

    Row e of G holds the linear predictors of all n subjects at the e-th
    of those events, whose risk set is the suffix ``plan.starts[rows][e]:``
    of the time-sorted rows.  Returns logS0 (m,), the log-sum-exp of the
    risk-set predictors, and for order >= 1 the weighted mean Ebar (m, p)
    of the plan's covariates Z, for order >= 2 the weighted covariance V
    (m, p, p).  Each event subtracts its own risk-set maximum before
    exponentiating.  The weight blocks come from ``_risk_weights``, or are
    ``blocks`` kept from an earlier scan of the same G, which is then not
    read.  This is the only per-event loop: it zips the plan's views with
    the rows of each weight block.

    Every float equals that of a loop over single events.  A block of k
    events whose first risk-set start is r0 copies G[block, r0:] into a
    (k, n - r0 + 1) matrix behind one leading column, and masks each row
    left of its own start with -inf; the mask touches only the columns
    left of the block's last start.  The row max and W = exp(row - max)
    are elementwise, and masked entries become exp(-inf) = 0.
    ``np.add.reduceat`` over [a, b) gives x[a] + pairwise(x[a+1:b]) where
    ``ndarray.sum`` gives pairwise(x), so each row's segment starts on the
    masked zero just before its suffix (hence the leading column); zero
    padding at the row end, or one dense (m, n) matrix, would change the
    pairwise split.  BLAS gemv and gemm are not invariant to zero padding
    either, so the weighted sums of Z stay one product per event, on views
    of W.  The second moment of event e with risk set Zr = Z[r:] is
    ``Zr.T @ t.T``, where t = Z.T[:, r:] * w is formed from a C-contiguous
    copy of Z.T into the plan's (p, n) buffer: the same products as the
    loop's ``Zr.T @ (w[:, None] * Zr)`` without its temporaries, and the
    same gemm result under every OpenBLAS core type tried.  Each scan
    writes the buffer before it reads it, so one scan leaves nothing for
    the next.  ``Z.T[:, r:] @ t.T`` and a Fortran-ordered Z reach other
    floats and are not used.  The normalizations run once over all events.
    """
    starts = plan.starts[rows]
    m, (n, p) = starts.shape[0], plan.Z.shape
    mx, s0 = np.zeros(m), np.zeros(m)
    S1 = np.zeros((m, p)) if order >= 1 else None
    S2 = np.zeros((m, p, p)) if order >= 2 else None
    views = plan.views()[rows] if order >= 1 else None
    e = 0
    for W, top, s in _risk_weights(G, starts) if blocks is None else blocks:
        k = W.shape[0]
        mx[e:e + k], s0[e:e + k] = top, s
        if order >= 1:
            off = n - W.shape[1]            # the column before the block's first start
            S2_rows = S2[e:e + k] if order >= 2 else [None] * k
            for Wi, (r, Zr, ZrT, ZTr, t, tT), s1, s2 in zip(W, views[e:e + k], S1[e:e + k],
                                                            S2_rows):
                w = Wi[r - off:]
                np.matmul(w, Zr, out=s1)
                if s2 is not None:
                    np.multiply(ZTr, w, out=t)
                    np.matmul(ZrT, tT, out=s2)
        e += k
    logS0 = mx + np.log(s0)
    Ebar = S1 / s0[:, None] if order >= 1 else None
    V = S2 / s0[:, None, None] - Ebar[:, :, None] * Ebar[:, None, :] if order >= 2 else None
    return logS0, Ebar, V


def _event_totals(H: np.ndarray, ds: SurvivalDataset, events: np.ndarray,
                  plan: _RiskSets, order: int):
    """Own predictors and risk-set totals for per-event effect rows H (m, p).

    ``plan`` is the risk-set plan of ds's covariates Z and ``events``, and
    the scan runs through its entry under H's bytes (see ``_RiskSets``).
    The predictors H @ Z.T are built in chunks of events so the matrix
    stays within _CHUNK_BUDGET floats.  Returns own_g (m,) and the
    ``_risk_set_totals`` triple.

    Each predictor is a sum of p products, so when p max|H| max|Z| is below
    1e300 all are finite and the finite check of each chunk is skipped.  A
    NaN or inf in H or Z makes that bound NaN or inf, and the check runs; a
    non-finite predictor raises NumericError naming input rows.
    """
    Z = plan.Z
    chunk = max(1, _CHUNK_BUDGET // max(Z.shape[0], 1))
    bound = Z.shape[1] * float(np.abs(H).max(initial=0.0)) * plan.z_max

    def chunks():
        # without events one empty chunk still runs and gives the output shapes
        for s in range(0, max(H.shape[0], 1), chunk):
            rows = slice(s, s + chunk)
            with np.errstate(over="ignore", invalid="ignore"):
                G = H[rows] @ Z.T                       # (c, n) predictors at event times
            if not bound < 1e300 and not np.isfinite(G).all():
                e, col = np.argwhere(~np.isfinite(G))[0]
                raise NumericError(
                    f"non-finite linear predictor of input row {int(ds.sort_index[col])} "
                    f"at the event time of input row {int(ds.sort_index[events[s + e]])}"
                )
            yield G[np.arange(G.shape[0]), events[rows]], G, rows

    return plan.scan(H.tobytes(), order, chunks())


def _scan(cb: CoefficientBlock, ds: SurvivalDataset, ws: LikelihoodWorkspace, order: int):
    """One pass over events: per-event risk totals up to the given order.

    Returns own_g, logS0 (both (m,)), and for order >= 1 also Ebar (m, p),
    h1 (m, p); for order >= 2 also V (m, p, p), h2 (m, p).  The totals come
    from the workspace's risk-set plan, which reuses what its last scan
    kept at equal effect rows.
    """
    _check_dims(cb, ds, ws)
    if cb.thresholds is not None and order >= 1 and cb.eta == 0.0:
        raise ValidationError("derivatives need eta > 0 (exact operator is kinked)")

    theta = ws.basis_at_events @ cb.gamma.T         # (m, p)
    h, h1, h2 = _effect(theta, cb.thresholds, cb.eta, order)
    own_g, logS0, Ebar, V = _event_totals(h, ds, ws.event_rows, ws.risk_sets, order)
    return own_g, logS0, Ebar, h1, V, h2


def _penalty(cb: CoefficientBlock, ws: LikelihoodWorkspace) -> float:
    return float(np.einsum("ja,ab,jb->", cb.gamma, ws.penalty_gram, cb.gamma))


def _block_sum(M: np.ndarray, ws: LikelihoodWorkspace) -> np.ndarray:
    """sum_e M[e, j, k] * B_e B_e' over the workspace's events, a (p q, p q)
    matrix, with the floats of ``np.einsum`` on the workspace's path.

    On the path that contracts all three operands at once, einsum adds
    (B_eb B_ea) M_ejk into a zeroed output, event by event.  The band sum
    makes the same sum over each event's window of basis columns (see
    ``_band_runs``): per run of events sharing a window, one reduction
    along the leading axis of [window's running total, the run's products]
    adds them in event order.  The terms it skips are products with a zero
    basis entry, so ±0 for finite M, and adding ±0 never changes a sum that
    starts at +0.0.  Other paths contract pairwise through BLAS, whose
    floats the band sum cannot reproduce, and run through ``np.einsum``.
    """
    pq = ws.penalty_kron.shape[0]
    if ws.block_sum_path is None:
        return np.zeros((pq, pq))
    B_ev = ws.basis_at_events
    if not ws.band_runs:
        return np.einsum(_BLOCK_SUM, M, B_ev, B_ev, optimize=ws.block_sum_path).reshape(pq, pq)
    p, q = M.shape[1], B_ev.shape[1]
    w = ws.band_runs[0][3] - ws.band_runs[0][2]
    out = np.zeros((p, q, p, q))
    # (j, k, u, v) order: each event's w x w products are one contiguous block
    buf = np.empty((max(b - a for a, b, _, _ in ws.band_runs) + 1, p, p, w, w))
    for a, b, lo, hi in ws.band_runs:
        Bw = B_ev[a:b, lo:hi]
        win, run = out[:, lo:hi, :, lo:hi].transpose(0, 2, 1, 3), buf[:b - a + 1]
        run[0] = win
        # the basis pair first, then M, as einsum groups the product
        np.multiply(M[a:b, :, :, None, None], (Bw[:, None, :] * Bw[:, :, None])[:, None, None],
                    out=run[1:])
        np.add.reduce(run, axis=0, out=win)
    return out.reshape(pq, pq)


def _evaluate(cb: CoefficientBlock, ds: SurvivalDataset, ws: LikelihoodWorkspace, order: int):
    """(value, gradient or None, Hessian or None) from one scan of the given order."""
    own_g, logS0, Ebar, h1, V, h2 = _scan(cb, ds, ws, order)
    p = cb.p
    value = float(own_g.sum() - logS0.sum() - ws.rho * _penalty(cb, ws))
    if order == 0:
        return value, None, None
    Z_ev = ws.covariates_at_events
    C = (Z_ev - Ebar) * h1                          # (m, p)
    grad = (C.T @ ws.basis_at_events - 2.0 * ws.rho * (cb.gamma @ ws.penalty_gram)).reshape(-1)
    if order == 1:
        return value, grad, None
    M = -V * h1[:, :, None] * h1[:, None, :]
    M[:, np.arange(p), np.arange(p)] += (Z_ev - Ebar) * h2
    H = _block_sum(M, ws)
    H -= 2.0 * ws.rho * ws.penalty_kron
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
    return _score_cov(cb, ds, ws)


def _score_cov(cb: CoefficientBlock, ds: SurvivalDataset, ws: LikelihoodWorkspace) -> np.ndarray:
    """``score_covariance`` under a private name, for ``fit``: it reads the
    totals that the last derivative scan at cb kept on the workspace's
    plan (a fresh scan gives the same floats), and a tracer of the public
    scan functions counts no scan for it."""
    _, _, _, h1, V, _ = _scan(cb, ds, ws, order=2)
    return _block_sum(V * h1[:, :, None] * h1[:, None, :], ws)


def value_and_derivatives(cb: CoefficientBlock, ds: SurvivalDataset, ws: LikelihoodWorkspace):
    """(value, gradient, hessian) sharing a single event scan.

    When the last scan of the workspace ran at the same effect rows, as the
    value scan of an accepted line-search trial does, the scan uses the
    weights or totals it kept and adds only what is missing, with the same
    floats.
    """
    return _evaluate(cb, ds, ws, order=2)
