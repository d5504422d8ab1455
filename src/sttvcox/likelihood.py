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

import itertools
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
# the fresh flags of a block of per-event predictor rows: each forms its own moments
_EVERY_ROW = itertools.repeat(True)


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

    def _with_gamma(self, gamma: np.ndarray) -> CoefficientBlock:
        """This block at ``gamma``, a (p, q) float array.  Only gamma is
        checked, with the constructor's error for a non-finite entry; the
        thresholds and eta are this block's, checked when it was built."""
        if not np.isfinite(gamma).all():
            raise ValidationError("gamma entries must be finite")
        cb = object.__new__(CoefficientBlock)
        cb.__dict__.update(self.__dict__, gamma=gamma)
        return cb

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
    sorted first storage index of each event's risk set, one at least.  The
    plan keeps their Python ints and max|Z| from the start; the per-event
    views of the moment products, with the (m, p) and (m, p, p) moment rows
    ``S1`` and ``S2`` that the scans write them into, are built when an
    order-2 scan first asks for them, and the block geometry of a chunk of
    events (see ``geometry``) when a scan of that chunk first asks for it.
    Both depend on Z and ``starts`` alone and are kept for the life of the plan.

    A scan is of order 0 (the value) or 2 (every derivative too).  ``scan``
    keeps one entry for the plan's last scan, under the bytes of that
    scan's predictor inputs (the per-event effect rows of a spline scan,
    beta of a Cox scan), so equal values find it whatever object holds
    them.  An order-0 scan that ``keeps`` stores its own predictors and
    weight blocks; an order-2 scan stores its totals and drops the blocks.
    A scan under the entry's key uses it in place of predictors
    and weights, with the same floats; a scan under another key drops it
    before forming its own weights, so at most one scan's blocks are held.
    Each block carries its rows' flags of which events form their own
    weighted copy of Z (see ``_risk_weights``), so kept blocks serve the
    second moments of any scan, Cox or spline, with nothing else recorded.
    Scans of one plan share its (p, n) buffer, its moment rows and its
    entry, so they must not run concurrently.
    """

    def __init__(self, Z: np.ndarray, starts: np.ndarray):
        self.Z = Z
        self.starts = starts
        self.start_list = starts.tolist()
        # a Python float: inf * 0 gives NaN and an overflow gives inf, without warnings
        self.z_max = float(np.abs(Z).max(initial=0.0))
        self._views = None
        self.S1 = self.S2 = None   # the moment rows, built with the views
        self._geometry = {}   # (first event, stop event) of a chunk -> its blocks
        # (key, own predictors, weight blocks or None, totals or None)
        self._kept = None

    def chunk(self) -> int:
        """Events per chunk of a scan: as many (n,) predictor rows as fit in
        _CHUNK_BUDGET floats, one at least.  The budget is read per scan."""
        return max(1, _CHUNK_BUDGET // self.Z.shape[0])

    def keeps(self) -> bool:
        """Whether an order-0 scan keeps its weight blocks: when it runs as one chunk."""
        return len(self.start_list) <= self.chunk()

    def scan(self, key: bytes, order: int, chunks):
        """[own, logS0, Ebar, V] of the predictors whose inputs have bytes ``key``.

        ``chunks`` yields (own, G, rows) per chunk of events: the predictors
        G of the events ``rows`` and each event's own predictor.  G is either
        (k, n), one row per event, or one (n,) row shared by every event of
        the chunk, as in a Cox scan (see ``_risk_weights``).  ``chunks`` is
        read only when the kept entry cannot serve.  The totals reach at
        least the asked order, as in ``_risk_set_totals``.
        """
        if self._kept is not None and self._kept[0] != key:
            self._kept = None
        if self._kept is None:
            keep = order == 0 and self.keeps()
            parts = []
            for own, G, rows in chunks:
                blocks = list(_risk_weights(G, self.geometry(rows), self.starts[rows])
                              ) if keep else None
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

    def geometry(self, rows: slice = slice(None)) -> tuple:
        """The ``_risk_weights`` blocks of the events ``rows``, built once per
        event range: one (b0, k, r0, width, pre, mask, idx) per block of
        _BLOCK_EVENTS events from the range's first event (fewer in the last).

        The block holds the k events b0 .. b0 + k - 1 of the range, whose
        first risk-set start is r0; width = n + 1 - r0 is the width of its
        weight matrix, whose first ``pre`` columns hold every masked entry,
        marked True in the read-only (k, pre) ``mask``.
        ``idx`` holds the ``np.add.reduceat`` indices of the flattened
        matrix: each row's segment start, the masked zero just before its
        risk set, interleaved with the start of the next row.
        """
        key = rows.indices(len(self.start_list))[:2]
        if key not in self._geometry:
            n = self.Z.shape[0]
            blocks = []
            starts = self.starts[rows]
            for b0 in range(0, starts.shape[0], _BLOCK_EVENTS):
                rs = starts[b0:b0 + _BLOCK_EVENTS]
                k, r0 = rs.shape[0], int(rs.min())
                width = n - r0 + 1
                rel = rs - r0                     # column of the zero before each suffix
                pre = int(rel.max()) + 1
                # the odd segments, masked prefixes of the next row, are dropped
                row = np.arange(k) * width
                idx = np.stack([row + rel, row + width], axis=1).ravel()[:-1]
                blocks.append((b0, k, r0, width, pre,
                               _freeze(np.arange(pre) <= rel[:, None]), _freeze(idx)))
            self._geometry[key] = tuple(blocks)
        return self._geometry[key]

    def views(self) -> list:
        """Per event e with risk-set start r:
        (r, Z[r:], Z[r:].T, ZT[:, r:], t, t.T, S1[e], S2[e]).

        ZT is a C-contiguous copy of Z.T and t = buf[:, r:] a view of one
        (p, n) buffer, shared by tied events.  Each t ends at the buffer's
        end, so the t of a later start is the tail of an earlier one.  S1
        (m, p) and S2 (m, p, p) are the plan's moment rows, which a scan
        writes in place of fresh arrays; they are built here, with the
        views.
        """
        if self._views is None:
            Z = self.Z
            n, p = Z.shape
            ZT = np.ascontiguousarray(Z.T)
            buf = np.empty((p, n))
            self.S1 = np.empty((len(self.start_list), p))
            self.S2 = np.empty((len(self.start_list), p, p))
            self._views = [(r, Z[r:], Z[r:].T, ZT[:, r:], buf[:, r:], buf[:, r:].T, s1, s2)
                           for r, s1, s2 in zip(self.start_list, self.S1, self.S2)]
        return self._views


# the Hessian and score covariance assembly, sum_e M[e, j, k] * B_e B_e'
_BLOCK_SUM = "ejk,ea,eb->jakb"


@dataclass(frozen=True)
class LikelihoodWorkspace:
    """Per-dataset caches shared by repeated objective evaluations.

    Its arrays are read-only, so the windows in ``band_runs`` keep
    covering every nonzero of ``basis_at_events`` and ``band_products``
    keeps holding their products: row e is the (1, 1, w, w) array of
    B_ev B_eu over event e's window, which ``_block_sum`` multiplies by M.
    """

    basis: SplineBasis
    rho: float
    penalty_gram: np.ndarray     # (q, q), sum_i B(T_i) B(T_i)'
    event_rows: np.ndarray       # (m,) storage indices of events
    basis_at_events: np.ndarray  # (m, q), row e = B(T_e) of event e
    covariates_at_events: np.ndarray  # (m, p), rows event_rows of the covariates
    block_sum_path: list         # einsum path of _BLOCK_SUM
    band_runs: tuple             # see _band_runs; () off the band path
    band_products: np.ndarray | None  # (m, 1, 1, w, w) basis products; None off the band path
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

    Besides the basis rows and the penalty P, the workspace holds the event
    rows of the basis and covariates, the einsum path of the Hessian
    assembly and the risk-set plan of ds, whose per-event views are built
    once, at the first derivative scan, and which keeps what its last scan
    can pass to the next (see ``_RiskSets``).  When that path
    contracts all three operands at once, as it does for the p >= 2 shapes
    of the paper and the benchmark, the workspace also keeps the windows
    of nonzero basis columns that ``_block_sum`` sums over and the basis
    products over each event's window, formed run by run.  All arrays are
    read-only.  A dataset without events raises ValidationError, as every
    fit does, and a rho whose penalty 2 rho P overflows NumericError.  A
    held-out fold of cross-validation gets one at rho = 0 for a value scan.
    """
    rho = float(rho)
    if not np.isfinite(rho) or rho < 0:
        raise ValidationError(f"rho must be nonnegative and finite, got {rho}")
    if ds.tau > basis.tau:
        raise ValidationError(
            f"dataset horizon {ds.tau} exceeds basis horizon {basis.tau}"
        )
    events = ds.event_rows
    m, p = events.shape[0], ds.p
    if not m:
        raise ValidationError("the likelihood needs at least one event")
    B = eval_basis_grid(basis, ds.time)
    P = B.T @ B
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(2.0 * rho * P).all():
            raise NumericError(f"rho {rho} overflows the penalty Hessian 2 rho P")
    B_ev = B[events]
    runs, products = (), None
    # the path depends on shapes only
    path = np.einsum_path(_BLOCK_SUM, np.broadcast_to(0.0, (m, p, p)), B_ev, B_ev,
                          optimize="greedy")[0]
    if path[1:] == [(0, 1, 2)]:
        runs = _band_runs(B_ev)
        w = runs[0][3] - runs[0][2]
        products = np.empty((m, 1, 1, w, w))
        for a, b, lo, hi in runs:
            Bw = B_ev[a:b, lo:hi]
            np.multiply(Bw[:, None, :], Bw[:, :, None], out=products[a:b, 0, 0])
        products = _freeze(products)
    return LikelihoodWorkspace(
        basis=basis,
        rho=rho,
        penalty_gram=_freeze(P),
        event_rows=_freeze(events),
        basis_at_events=_freeze(B_ev),
        covariates_at_events=_freeze(ds.covariates[events]),
        block_sum_path=path,
        band_runs=runs,
        band_products=products,
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


def _risk_weights(G: np.ndarray, geometry: tuple, starts: np.ndarray | None = None):
    """Yields (W, row max, s0, fresh) per block of ``geometry`` (``_RiskSets.geometry``).

    W is the block's (k, n + 1 - r0) matrix of exp(predictor - row max)
    behind one leading zero column, where r0 = n + 1 - W.shape[1] is the
    block's first risk-set start; s0 holds its risk-set sums.  ``fresh``
    says, row by row, whether the event forms its own weighted copy of the
    covariates for its second moments or reads an earlier event's (see
    ``_risk_set_totals``); with one predictor row per event every row is
    fresh.  G[block, r0:] is copied whole, and only the columns left of the
    block's last start are then masked.  The geometry depends on the
    risk-set starts alone, so a plan builds it once per chunk of events and
    every scan of the chunk only fills, exponentiates and sums.

    A 1-D G is one predictor row shared by every event, whose risk-set
    starts are ``starts``; ``_shared_weights`` forms its blocks and flags.
    """
    if G.ndim == 1:
        yield from _shared_weights(G, geometry, starts)
        return
    for b0, k, r0, width, pre, mask, idx in geometry:
        W = np.empty((k, width))
        W[:, 1:] = G[b0:b0 + k, r0:]
        np.copyto(W[:, :pre], -np.inf, where=mask)
        top = W.max(axis=1)
        W -= top[:, None]
        np.exp(W, out=W)
        yield W, top, np.add.reduceat(W.ravel(), idx)[0::2], _EVERY_ROW


def _shared_weights(eta: np.ndarray, geometry: tuple, starts: np.ndarray):
    """``_risk_weights`` of the one predictor row eta (n,) shared by every
    event, the blocks' floats unchanged.

    Event e's row max is top_e = max(eta[r_e:]), read from one reverse
    running maximum (a max is exact in any order), and its weights are
    exp(eta[r_e:] - top_e).  Events of equal top_e have the same weights on
    their common suffix, bit for bit, and top_e falls as r_e grows, so each
    run of equal maxima exponentiates once, in the row of its first event,
    and the rows of the run's other events copy the tail of that row; a
    run that goes on into the next block is copied first into that block's
    first row, so no block refers to an earlier one.  The masked prefix of
    each row is then zeroed, the exp(-inf) of the per-event path.  The row
    sums are ``_risk_weights``'.  Only the first event of each run is
    fresh: the rest read the tail of its weighted copy of the covariates.
    The runs and the flags come from one comparison of neighbouring maxima,
    and the flags of a block are a slice of one per-scan array.  No array
    is allocated per run: one per run moved glibc's heap placement and
    raised the max RSS of six n = 1000 fits from 50 to 53 MB at the same
    traced peak.
    """
    top = np.maximum.accumulate(eta[::-1])[::-1][starts]
    start_list = starts.tolist()
    # a run's first event, where the maximum changes; NaN never equals
    fresh = np.r_[True, top[1:] != top[:-1]]
    # the end of each run: the next run's first event
    ends = iter([*np.flatnonzero(fresh)[1:].tolist(), top.shape[0]])
    end = 0
    for b0, k, r0, width, pre, mask, idx in geometry:
        W = np.empty((k, width))
        e = b0
        while e < b0 + k:
            if e == end:                    # a run's first event, in its own row
                r1, end = start_list[e], next(ends)
                E = W[e - b0, 1 + r1 - r0:]
                np.subtract(eta[r1:], top[e], out=E)
                np.exp(E, out=E)
            else:                           # a run from the last block goes on in row 0
                W[0, 1:] = E[r0 - r1:]
                r1, E = r0, W[0, 1:]
            stop = min(end, b0 + k)
            W[e - b0 + 1:stop - b0, 1 + r1 - r0:] = E
            e = stop
        np.copyto(W[:, :pre], 0.0, where=mask)
        yield W, top[b0:b0 + k], np.add.reduceat(W.ravel(), idx)[0::2], fresh[b0:b0 + k]


def _risk_set_totals(G: np.ndarray | None, plan: _RiskSets, order: int,
                     blocks: list | None = None, rows: slice = slice(None)):
    """Breslow risk-set totals of the plan's events ``rows``, in blocks of
    _BLOCK_EVENTS events.

    Row e of G holds the linear predictors of all n subjects at the e-th
    of those events, whose risk set is the suffix ``plan.starts[rows][e]:``
    of the time-sorted rows.  Returns logS0 (m,), the log-sum-exp of the
    risk-set predictors, and at order 2 the weighted mean Ebar (m, p) of
    the plan's covariates Z and their weighted covariance V (m, p, p),
    which order 0 gives as None.  Each event subtracts its own risk-set
    maximum before exponentiating.  The weight blocks come from
    ``_risk_weights`` over the plan's geometry of ``rows``, built once per
    plan and event range, or are ``blocks`` kept from an earlier scan of
    the same G, which is then not read.  G may also be one (n,) row shared
    by every event, as in a Cox scan.  This is the only per-event loop: it
    zips the rows of each weight block and their fresh flags with the
    plan's views, one tuple per event that holds the event's output rows
    too.  At a few hundred rows an event's cost is the number of numpy
    calls it makes, so each call passes its output positionally and
    nothing is allocated per event.

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
    same gemm result under every OpenBLAS core type tried.  An event that
    its block does not flag fresh skips forming t: its weights equal an
    earlier event's on its suffix (a run of equal maxima over a shared
    row, see ``_shared_weights``), and since each t view ends at the
    buffer's end it reads the tail of that t, the floats it would form.
    gemv and gemm stay one call per event.  The moments go straight into
    the plan's rows S1[e] and S2[e].  Each scan writes the buffer and the
    rows of its events before it reads them, so one scan leaves nothing
    for the next, and the normalizations, which run once over all events,
    return fresh arrays, so nothing returned shares memory with the plan.
    ``Z.T[:, r:] @ t.T`` and a Fortran-ordered Z reach other floats and are
    not used.  An order-0 scan forms no moments.
    """
    m, n = plan.starts[rows].shape[0], plan.Z.shape[0]
    mx, s0 = np.empty(m), np.empty(m)
    views = plan.views()[rows] if order else None
    matmul, multiply = np.matmul, np.multiply
    if blocks is None:
        blocks = _risk_weights(G, plan.geometry(rows), plan.starts[rows])
    e = 0
    for W, top, s, fresh in blocks:
        k = W.shape[0]
        mx[e:e + k], s0[e:e + k] = top, s
        if order:
            off = n - W.shape[1]            # the column before the block's first start
            for Wi, new, (r, Zr, ZrT, ZTr, t, tT, s1, s2) in zip(W, fresh, views[e:e + k]):
                w = Wi[r - off:]
                matmul(w, Zr, s1)
                if new:
                    multiply(ZTr, w, t)
                matmul(ZrT, tT, s2)
        e += k
    logS0 = mx + np.log(s0)
    if not order:
        return logS0, None, None
    Ebar = plan.S1[rows] / s0[:, None]
    return logS0, Ebar, plan.S2[rows] / s0[:, None, None] - Ebar[:, :, None] * Ebar[:, None, :]


def _event_totals(H: np.ndarray, ds: SurvivalDataset, events: np.ndarray,
                  plan: _RiskSets, order: int):
    """Own predictors and risk-set totals for per-event effect rows H (m, p).

    ``plan`` is the risk-set plan of ds's covariates Z and ``events``, and
    the scan runs through its entry under H's bytes (see ``_RiskSets``).
    The predictors H @ Z.T are built in chunks of ``plan.chunk()`` events,
    so the matrix stays within _CHUNK_BUDGET floats.  Returns own_g (m,)
    and the ``_risk_set_totals`` triple.

    Each predictor is a sum of p products, so when p max|H| max|Z| is below
    1e300 all are finite and the finite check of each chunk is skipped.  A
    NaN or inf in H or Z makes that bound NaN or inf, and the check runs; a
    non-finite predictor raises NumericError naming input rows.
    """
    Z = plan.Z
    chunk = plan.chunk()
    bound = Z.shape[1] * float(np.abs(H).max(initial=0.0)) * plan.z_max

    def chunks():
        for s in range(0, H.shape[0], chunk):
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
    """One pass over events: per-event risk totals of order 0 or 2.

    Returns own_g, logS0 (both (m,)), and at order 2 also Ebar (m, p), h1
    (m, p), V (m, p, p) and h2 (m, p).  The totals come from the
    workspace's risk-set plan, which reuses what its last scan kept at
    equal effect rows.
    """
    _check_dims(cb, ds, ws)
    if cb.thresholds is not None and order and cb.eta == 0.0:
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
    adds them in event order.  The basis pairs B_ev B_eu of each window are
    the workspace's ``band_products``, the same elementwise products that
    einsum forms, so only their product with M is formed per call.  The
    terms it skips are products with a zero basis entry, so ±0 for finite
    M, and adding ±0 never changes a sum that starts at +0.0.  Other paths contract pairwise through BLAS, whose
    floats the band sum cannot reproduce, and run through ``np.einsum``.
    """
    pq = M.shape[1] * ws.basis.q
    B_ev = ws.basis_at_events
    if not ws.band_runs:
        return np.einsum(_BLOCK_SUM, M, B_ev, B_ev, optimize=ws.block_sum_path).reshape(pq, pq)
    p, q, w = M.shape[1], B_ev.shape[1], ws.band_products.shape[-1]
    out = np.zeros((p, q, p, q))
    # (j, k, u, v) order: each event's w x w products are one contiguous block
    buf = np.empty((max(b - a for a, b, _, _ in ws.band_runs) + 1, p, p, w, w))
    for a, b, lo, hi in ws.band_runs:
        win, run = out[:, lo:hi, :, lo:hi].transpose(0, 2, 1, 3), buf[:b - a + 1]
        run[0] = win
        # the basis pair first, then M, as einsum groups the product
        np.multiply(M[a:b, :, :, None, None], ws.band_products[a:b], out=run[1:])
        np.add.reduce(run, axis=0, out=win)
    return out.reshape(pq, pq)


def _evaluate(cb: CoefficientBlock, ds: SurvivalDataset, ws: LikelihoodWorkspace, order: int):
    """(value, gradient, Hessian) from a scan of order 2, (value, None, None) of order 0.
    Only the p diagonal blocks of the Hessian carry the penalty, -2 rho P each.
    A gradient or Hessian that overflows (a huge rho) raises NumericError."""
    own_g, logS0, Ebar, h1, V, h2 = _scan(cb, ds, ws, order)
    p, q = cb.p, cb.q
    value = float(own_g.sum() - logS0.sum() - ws.rho * _penalty(cb, ws))
    if order == 0:
        return value, None, None
    Z_ev = ws.covariates_at_events
    C = (Z_ev - Ebar) * h1                          # (m, p)
    with np.errstate(over="ignore", invalid="ignore"):  # a huge rho; checked below
        grad = (C.T @ ws.basis_at_events - 2.0 * ws.rho * (cb.gamma @ ws.penalty_gram)).reshape(-1)
    M = -V * h1[:, :, None] * h1[:, None, :]
    M[:, np.arange(p), np.arange(p)] += (Z_ev - Ebar) * h2
    H = _block_sum(M, ws)
    pen = 2.0 * ws.rho * ws.penalty_gram
    for j in range(p):
        H[j * q:(j + 1) * q, j * q:(j + 1) * q] -= pen
    if not (np.isfinite(grad).all() and np.isfinite(H).all()):
        raise NumericError(
            f"rho {ws.rho} overflows the gradient or Hessian; a smaller rho may help"
        )
    return value, grad, H


def penalized_loglik(cb: CoefficientBlock, ds: SurvivalDataset, ws: LikelihoodWorkspace) -> float:
    """Value of the smoothed penalized log partial likelihood."""
    return _evaluate(cb, ds, ws, order=0)[0]


def gradient(cb: CoefficientBlock, ds: SurvivalDataset, ws: LikelihoodWorkspace) -> np.ndarray:
    """Exact gradient, stacked (p*q,), block j at entries j*q .. (j+1)*q - 1."""
    return _evaluate(cb, ds, ws, order=2)[1]


def hessian(cb: CoefficientBlock, ds: SurvivalDataset, ws: LikelihoodWorkspace) -> np.ndarray:
    """Exact Hessian, (p*q, p*q), symmetric."""
    return _evaluate(cb, ds, ws, order=2)[2]


def score_covariance(cb: CoefficientBlock, ds: SurvivalDataset, ws: LikelihoodWorkspace) -> np.ndarray:
    """Event sum of risk-set score covariances (sandwich meat), (p*q, p*q).

    Block (j, k) is sum over events of V_jk h'_j h'_k B(T_i) B(T_i)'.
    No 1/n normalization is applied; the variance formula downstream
    consumes this raw sum directly.  The order-2 scan reads the totals that
    the workspace's last derivative scan at cb kept, as ``fit``'s scan at
    the optimum does, and scans afresh otherwise, with the same floats.
    """
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
