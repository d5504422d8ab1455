"""The shared Breslow risk-set kernel, checked through each of its callers.

Hypothesis draws small datasets with heavy ties (few distinct times, so
events and censorings share times), a single event, and covariates up to
1e3 in magnitude, and compares the penalized likelihood, the warm-start
partial likelihood and the held-out CV error with the loop references in
``oracles.py``.  The kernel itself is checked bit for bit against the
per-event loop it replaced, also on seeded cases up to n = 20000, through
one risk-set plan per case that serves all its scans; a plan scanned again
with other predictors must equal fresh plans.  The value of an order-0
scan is checked against the value of the order-2 scan, which the Newton
line search relies on, and the public gradient equals the derivative
scan's.  Per-event
predictor rows whose risk-set maxima are all equal, told apart from a
shared row only by the weight blocks' flags, must each form their own
second moments.  A derivative scan that reuses what the plan kept
of an order-0 scan at equal effect rows, and a score covariance read from
the derivative scan's kept totals, are checked against a fresh workspace.
The weight blocks, formed over a plan's cached block geometry, are
checked bit for bit against blocks masked in full; the cached geometry is
read-only and equals geometry built afresh, for chunks of every event, of
50 and of 97 events.  The moments are written into the plan's rows, so
the totals a scan returns must share no memory with them and must
survive the plan's next scan, and order-0 and order-2 scans in chunks of
50 and 97 events must equal the per-event loop.  Predictors that
overflow or come from NaN effects raise NumericError, also where the
finite check of the predictors could be skipped.  The warm start's one
shared predictor row, whose events share weights per run of equal
maxima and whose kept blocks flag each run's first event as the one that
forms the run's weighted covariates, must give the per-event loop's
value, gradient and Hessian bit for bit, from fresh weights and from
weights kept by a value scan, with one run, a run per event, heavy ties,
one event and a censored tail.
"""

import math
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sttvcox as sx
from sttvcox import likelihood
from oracles import (
    coxph_loglik_ref,
    penalized_loglik_ref,
    risk_set_ref,
    risk_geometry_ref,
    risk_set_totals_loop,
    risk_weights_full_mask_ref,
    scipy_basis_matrix,
    soft_threshold_ref,
)
from sttvcox.coxph import _loglik_parts
from sttvcox.likelihood import _risk_set_totals, _RiskSets
from sttvcox.model_selection import _heldout_error

# pinned to the floats of every OpenBLAS kernel (the CI core-type loop)
pytestmark = pytest.mark.bitwise

K, D = 2, 2
Q = K + D

bounded = settings(max_examples=50, deadline=None)


@st.composite
def cases(draw, need_event=True):
    """(dataset, gamma (p, Q), thresholds (p,)) with ties and wide covariates."""
    n = draw(st.integers(1, 24))
    p = draw(st.integers(1, 3))
    distinct = draw(st.integers(1, n))
    time = 0.5 * np.array(draw(st.lists(st.integers(1, distinct), min_size=n, max_size=n)))
    event = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if need_event and not event.any():
        event[draw(st.integers(0, n - 1))] = True
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    scale = draw(st.sampled_from([1.0, 1e3]))
    Z = scale * np.array(draw(st.lists(unit, min_size=n * p, max_size=n * p))).reshape(n, p)
    gamma = 2.0 * np.array(draw(st.lists(unit, min_size=p * Q, max_size=p * Q))).reshape(p, Q)
    alphas = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=p, max_size=p)))
    return sx.make_dataset(time, event, Z), gamma, alphas


# one event, tied with a censored time, between covariates of magnitude 1e3
SINGLE_EVENT = (
    sx.make_dataset([1.0, 1.0, 2.0], [False, True, False], [[1e3], [-1e3], [5.0]]),
    np.array([[0.4, -0.3, 1.2, 0.1]]),
    np.array([0.2]),
)


def tolerance(ds, gamma):
    """Absolute slack for sums of predictors as large as |Z| |gamma| p."""
    size = 1.0 + ds.p * np.abs(ds.covariates).max() * (1.0 + np.abs(gamma).max())
    return 1e-12 * ds.n * size


def loglik_parts_loop(ds, beta):
    """Per-event Breslow sums added in event order from the first event's
    terms, the Hessian negated at the end: the warm-start arithmetic, down
    to the sign of a zero."""
    Z = ds.covariates
    eta = Z @ beta
    total = None
    for e in ds.event_rows:
        r = ds.risk_start(e)
        seg = eta[r:]
        mx = seg.max()
        w = np.exp(seg - mx)
        s0 = w.sum()
        ebar = (w @ Z[r:]) / s0
        terms = (eta[e] - (mx + np.log(s0)), Z[e] - ebar,
                 Z[r:].T @ (w[:, None] * Z[r:]) / s0 - np.outer(ebar, ebar))
        total = terms if total is None else [a + b for a, b in zip(total, terms)]
    value, grad, hess = total
    return value, grad, -hess


# Seeded sizes beyond the Hypothesis cases: n around numpy's 8-wide unrolled
# sum, its 128-element pairwise recursion and its 8192-element reduction
# buffer; m over several 64-event kernel blocks with a partial last block.
# (n, m, p, starts): "spread" draws sorted starts, "tied" gives every event
# the whole sample, "censored_tail" keeps the last tenth of rows out of
# every start, as when the longest times are all censored.
SCALE_CASES = [
    (7, 5, 1, "spread"),
    (9, 9, 2, "tied"),
    (129, 70, 3, "spread"),
    (1000, 200, 5, "spread"),
    (8193, 130, 2, "tied"),
    (20000, 65, 3, "censored_tail"),
    (300, 0, 2, "spread"),
]


def scale_case(n, m, p, starts, seed):
    rng = np.random.default_rng(seed)
    Z = rng.choice([1.0, 1e3]) * rng.uniform(-1.0, 1.0, (n, p))
    G = rng.normal(0.0, rng.choice([0.1, 3.0, 50.0]), (m, n))
    if starts == "tied":
        r = np.zeros(m, dtype=np.intp)
    else:
        top = n - n // 10 if starts == "censored_tail" else n
        r = np.sort(rng.integers(0, top, m))
    return G, r, Z


def plan_of(ds):
    return _RiskSets(ds.covariates, ds.risk_start(ds.event_rows))


def assert_same_totals(got, want):
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


def assert_totals_match_loop(G, starts, Z):
    """The kernel, given one plan of (Z, starts) for all its scans, equals
    the per-event loop bit for bit at orders 0 and 2; order 0 returns no
    Ebar and no V."""
    plan = _RiskSets(Z, starts)
    for order in (0, 2):
        assert_same_totals(_risk_set_totals(G, plan, order),
                           risk_set_totals_loop(G, starts, Z, order))


class TestKernel:
    @pytest.mark.parametrize("n, m, p, starts", SCALE_CASES)
    def test_risk_set_totals_match_per_event_loop_at_scale(self, n, m, p, starts):
        assert_totals_match_loop(*scale_case(n, m, p, starts, seed=n + m))

    @pytest.mark.parametrize("n, m, p, starts", SCALE_CASES)
    def test_plan_scanned_again_matches_fresh_plans_bitwise(self, n, m, p, starts):
        # scans of one plan share its views and (p, n) buffer; nothing of
        # one scan may reach the next
        G, r, Z = scale_case(n, m, p, starts, seed=n + m)
        G2 = np.random.default_rng(n).normal(0.0, 3.0, G.shape)
        plan = _RiskSets(Z, r)
        for g, order in ((G, 2), (G2, 0), (G2, 2)):
            assert_same_totals(_risk_set_totals(g, plan, order),
                               _risk_set_totals(g, _RiskSets(Z, r), order))

    # besides SCALE_CASES: one event, and 400 events on 50 rows, so that
    # most events share their start with others
    @pytest.mark.parametrize("n, m, p, starts",
                             SCALE_CASES + [(400, 1, 1, "spread"), (50, 400, 2, "spread")])
    def test_risk_weights_match_full_mask_bitwise(self, n, m, p, starts):
        G, r, Z = scale_case(n, m, p, starts, seed=n + m)
        plan = _RiskSets(Z, r)
        # the warm start hands the kernel one broadcast row of predictors
        for g in (G, np.broadcast_to(G[:1], G.shape)) if m else (G,):
            got = list(likelihood._risk_weights(g, plan.geometry()))
            want = risk_weights_full_mask_ref(g, r, likelihood._BLOCK_EVENTS)
            assert len(got) == len(want) == -(-m // likelihood._BLOCK_EVENTS)
            for (*got_block, _), want_block in zip(got, want):
                for a, b in zip(got_block, want_block, strict=True):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_warm_start_loglik_matches_per_event_loop_at_scale(self):
        # _loglik_parts hands the kernel its one shared row of predictors
        rng = np.random.default_rng(3)
        n = 9000
        time = rng.integers(1, 400, n) * 0.25          # heavy ties
        event = rng.random(n) < 0.03
        event[time > 90] = False                        # censored tail
        ds = sx.make_dataset(time, event, 1e3 * rng.uniform(-1.0, 1.0, (n, 2)))
        beta = np.array([4e-4, -7e-4])
        got = _loglik_parts(ds, plan_of(ds), beta, order=2)
        want = loglik_parts_loop(ds, beta)
        assert got[0] == want[0]
        for g, w in zip(got[1:], want[1:]):
            assert g.tobytes() == w.tobytes()

    def test_per_event_rows_with_equal_maxima_form_their_own_moments(self, monkeypatch):
        # every row max is 0.0 while the rows differ, so only the weight
        # blocks' flags, not equal maxima, may decide which events form
        # their own weighted copy of the covariates
        ds, ws, cb = equal_maxima_case()
        events, Z = ds.event_rows, ds.covariates
        starts = ds.risk_start(events)
        G = (ws.basis_at_events @ cb.gamma.T) @ Z.T
        assert ds.n_events > 2 * likelihood._BLOCK_EVENTS
        assert (G <= 0.0).all() and (G[:, -1] == 0.0).all()
        assert not (G[1:] == G[:-1]).all(axis=1).any()
        want = risk_set_totals_loop(G, starts, Z, 2)
        plan = _RiskSets(Z, starts)
        blocks = list(likelihood._risk_weights(G, plan.geometry()))
        assert_same_totals(_risk_set_totals(G, plan, 2), want)
        assert_same_totals(_risk_set_totals(None, plan, 2, blocks), want)
        # fits scan the same rows: fresh, and from the blocks a value scan kept
        want_scan, want_totals = fresh_scan(cb, ds, ws)
        assert_same_totals(want_totals[:3], want)
        kept, formed, got, got_totals = scan_and_reuse(cb, ds, ws, monkeypatch)
        assert (kept, formed) == (1, 0)
        assert_same_scan(got, got_totals, want_scan, want_totals)

    @bounded
    @given(case=cases())
    @example(case=SINGLE_EVENT)
    def test_risk_set_totals_match_per_event_loop_bitwise(self, case):
        ds, gamma, alphas = case
        B_ev = sx.eval_basis_grid(sx.make_basis(K, D, ds.tau), ds.time[ds.event_rows])
        G = sx.smooth_threshold(B_ev @ gamma.T, alphas, 0.01) @ ds.covariates.T
        assert_totals_match_loop(G, ds.risk_start(ds.event_rows), ds.covariates)

    @bounded
    @given(case=cases(), thresholded=st.booleans())
    @example(case=SINGLE_EVENT, thresholded=True)
    def test_value_scan_matches_derivative_scan_bitwise(self, case, thresholded):
        ds, gamma, alphas = case
        ws = sx.make_workspace(ds, sx.make_basis(K, D, ds.tau), 0.5)
        cb = sx.CoefficientBlock(
            gamma=gamma, thresholds=alphas if thresholded else None, eta=0.01
        )
        value = sx.penalized_loglik(cb, ds, ws)
        # from the kept weights and from a new workspace
        grads = [sx.gradient(cb, ds, ws),
                 sx.gradient(cb, ds, sx.make_workspace(ds, ws.basis, ws.rho))]
        value_2, grad_2, _ = sx.value_and_derivatives(cb, ds, ws)
        assert value.hex() == value_2.hex()
        assert all(grad.tobytes() == grad_2.tobytes() for grad in grads)


def shared_row_case(kind):
    """(dataset, beta) for the warm start's shared predictor row eta = Z beta.

    "one_run": eta rises along the time-sorted rows, so every risk set has
    the last row's maximum and all events form one run of equal maxima;
    "own_runs": eta falls and event times are distinct, so every event is a
    run of its own; "ties": 12 distinct times over 300 rows; "one_event";
    "censored_tail": the longest fifth of the times all censored.  Every
    case has covariates of magnitude up to 1e3.
    """
    rng = np.random.default_rng(len(kind))
    n = 300
    time = rng.permutation(n) + 1.0
    event = rng.random(n) < 0.7
    Z = 1e3 * rng.uniform(-1.0, 1.0, (n, 3))
    if kind in ("one_run", "own_runs"):
        Z[:, 0] = (time if kind == "one_run" else -time) * (1e3 / n)
        Z[:, 1:] *= 1e-6
    elif kind == "ties":
        time = rng.integers(1, 13, n) * 0.5
    elif kind == "one_event":
        event[:] = False
        event[n // 2] = True
    elif kind == "censored_tail":
        event[time > 0.8 * n] = False
    return sx.make_dataset(time, event, Z), np.array([3e-3, -2e-3, 1e-3])


def shared_row_run_starts(ds, beta):
    """Per event, whether it starts a run of equal risk-set maxima of
    eta = Z beta."""
    eta = ds.covariates @ beta
    top = np.maximum.accumulate(eta[::-1])[::-1][ds.risk_start(ds.event_rows)]
    return np.r_[True, top[1:] != top[:-1]]


class TestSharedRow:
    """The warm start hands the kernel one predictor row shared by every
    event, which forms one exponential per run of equal maxima."""

    KINDS = ["one_run", "own_runs", "ties", "one_event", "censored_tail"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_loglik_parts_match_per_event_loop_bitwise(self, kind):
        ds, beta = shared_row_case(kind)
        run_starts = shared_row_run_starts(ds, beta)
        runs = int(run_starts.sum())
        assert runs == {"one_run": 1, "own_runs": ds.n_events,
                        "one_event": 1}.get(kind, runs)
        assert ds.n_events == 1 if kind == "one_event" else ds.n_events > 2 * 64
        want = loglik_parts_loop(ds, beta)
        plan = plan_of(ds)
        # a fresh plan at each order, then order 2 from the weights the
        # order-0 scan kept
        scans = [_loglik_parts(ds, plan_of(ds), beta, 0),
                 _loglik_parts(ds, plan_of(ds), beta, 2),
                 _loglik_parts(ds, plan, beta, 0)]
        # the kept blocks flag only each run's first event as fresh
        flags = np.concatenate([fresh for *_, fresh in plan._kept[2]])
        assert flags.tolist() == run_starts.tolist()
        scans.append(_loglik_parts(ds, plan, beta, 2))
        for got in scans:
            assert got[0] == want[0]
            for g, w in zip(got[1:], want[1:]):
                assert g is None or g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_shared_row_weights_match_full_mask_bitwise(self, kind):
        ds, beta = shared_row_case(kind)
        eta, starts = ds.covariates @ beta, ds.risk_start(ds.event_rows)
        plan = plan_of(ds)
        got = list(likelihood._risk_weights(eta, plan.geometry(), starts))
        want = risk_weights_full_mask_ref(np.broadcast_to(eta, (starts.shape[0], ds.n)),
                                          starts, likelihood._BLOCK_EVENTS)
        assert len(got) == len(want)
        for (*got_block, _), want_block in zip(got, want):
            for a, b in zip(got_block, want_block, strict=True):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @bounded
    @given(case=cases())
    @example(case=SINGLE_EVENT)
    def test_order_two_after_kept_order_zero_matches_loop(self, case):
        ds, gamma, _ = case
        beta = gamma[:, 0]
        plan = plan_of(ds)
        value = _loglik_parts(ds, plan, beta, 0)[0]
        got = _loglik_parts(ds, plan, beta, 2)
        want = loglik_parts_loop(ds, beta)
        assert value == got[0] == want[0]
        for g, w in zip(got[1:], want[1:]):
            assert g.tobytes() == w.tobytes()


class TestGeometry:
    """The block geometry a plan builds once per chunk of events."""

    # chunks of every event, of 50 events and of 97 events
    @pytest.mark.parametrize("chunk", [None, 50, 97])
    def test_cached_geometry_matches_fresh_geometry(self, monkeypatch, chunk):
        ds = sx.generate(sx.Scenario(n=400, covariance="ar1", seed=2))
        m, n = ds.n_events, ds.n
        if chunk is not None:
            monkeypatch.setattr(likelihood, "_CHUNK_BUDGET", chunk * n)
        ws = sx.make_workspace(ds, sx.make_basis(K, D, ds.tau), 1.0 / n**2)
        cb = sx.CoefficientBlock(gamma=0.1 * np.ones((ds.p, Q)),
                                 thresholds=np.full(ds.p, 0.05), eta=0.01)
        for trial in (cb, replace(cb, gamma=0.5 * cb.gamma), cb):
            sx.penalized_loglik(trial, ds, ws)
            sx.value_and_derivatives(trial, ds, ws)
        plan = ws.risk_sets
        step = m if chunk is None else chunk
        ranges = [(s, min(s + step, m)) for s in range(0, m, step)]
        assert m > 2 * 97 and sorted(plan._geometry) == ranges
        for s, e in ranges:
            got = plan._geometry[s, e]
            want = risk_geometry_ref(plan.starts[s:e], n, likelihood._BLOCK_EVENTS)
            assert len(got) == len(want) == -(-(e - s) // likelihood._BLOCK_EVENTS)
            for got_block, want_block in zip(got, want):
                assert got_block[:5] == want_block[:5]
                for a, b in zip(got_block[5:], want_block[5:]):
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes()
            # a later scan of the chunk gets the same blocks, not new ones
            assert plan.geometry(slice(s, s + step)) is got

    def test_cached_geometry_is_read_only(self):
        G, r, Z = scale_case(129, 70, 3, "spread", seed=199)
        plan = _RiskSets(Z, r)
        blocks = plan.geometry()
        assert len(blocks) == 2
        for *_, mask, idx in blocks:
            with pytest.raises(ValueError):
                mask[0, 0] = False
            with pytest.raises(ValueError):
                idx[0] = 1
        # the scan still reads them
        assert_same_totals(_risk_set_totals(G, plan, 0), risk_set_totals_loop(G, r, Z, 0))


def chunked_predictors(H, Z, chunk):
    """H @ Z.T formed chunk by chunk, as the event scan forms it."""
    return np.concatenate([H[s:s + chunk] @ Z.T for s in range(0, H.shape[0], chunk)])


class TestMomentRows:
    """The plan's moment rows S1 and S2, which every derivative scan writes."""

    @pytest.mark.parametrize("n, m, p, starts", SCALE_CASES)
    def test_returned_totals_do_not_share_the_plans_rows(self, n, m, p, starts):
        G, r, Z = scale_case(n, m, p, starts, seed=n + m)
        G2 = np.random.default_rng(n).normal(0.0, 3.0, G.shape)
        plan = _RiskSets(Z, r)
        first = _risk_set_totals(G, plan, 2)
        before = [a.tobytes() for a in first]
        second = _risk_set_totals(G2, plan, 2)
        assert [a.tobytes() for a in first] == before
        for totals in (first, second):
            for a in totals:
                assert a is None or not any(
                    np.shares_memory(a, rows) for rows in (plan.S1, plan.S2))

    def test_order_two_scans_at_two_keys_keep_their_totals(self):
        # the second scan rewrites every row the first one wrote
        ds = sx.generate(sx.Scenario(n=400, covariance="ar1", seed=2))
        events = ds.event_rows
        H1, H2 = np.random.default_rng(4).normal(0.0, 0.3, (2, events.shape[0], ds.p))
        plan = plan_of(ds)
        first = likelihood._event_totals(H1, ds, events, plan, 2)
        before = [a.tobytes() for a in first]
        second = likelihood._event_totals(H2, ds, events, plan, 2)
        assert plan._kept[3] is not None and plan._kept[3][1] is second[2]
        assert [a.tobytes() for a in first] == before
        for H, got in ((H1, first), (H2, second)):
            assert_same_totals(got, likelihood._event_totals(H, ds, events, plan_of(ds), 2))

    # chunks of 50 and 97 events of a 400-row dataset, the last one partial
    @pytest.mark.parametrize("chunk", [50, 97])
    @pytest.mark.parametrize("order", [0, 2])
    def test_chunked_scan_matches_per_event_loop_bitwise(self, monkeypatch, chunk, order):
        ds = sx.generate(sx.Scenario(n=400, covariance="ar1", seed=2))
        events, Z = ds.event_rows, ds.covariates
        monkeypatch.setattr(likelihood, "_CHUNK_BUDGET", chunk * ds.n)
        H = np.random.default_rng(chunk).normal(0.0, 0.3, (events.shape[0], ds.p))
        plan = plan_of(ds)
        G = chunked_predictors(H, Z, chunk)
        want = risk_set_totals_loop(G, ds.risk_start(events), Z, order)
        # a second scan of the plan at other rows, then the first rows again
        for rows in (H, 2.0 * H, H):
            own, *totals = likelihood._event_totals(rows, ds, events, plan, order)
        assert events.shape[0] > 2 * 97 and events.shape[0] % chunk
        assert own.tobytes() == G[np.arange(G.shape[0]), events].tobytes()
        assert_same_totals(totals, want)


class TestKernelCallers:
    @bounded
    @given(case=cases())
    @example(case=SINGLE_EVENT)
    def test_penalized_loglik_matches_reference(self, case):
        ds, gamma, alphas = case
        basis = sx.make_basis(K, D, ds.tau)
        ws = sx.make_workspace(ds, basis, 0.5)
        cb = sx.CoefficientBlock(gamma=gamma, thresholds=alphas, eta=0.01)
        B = sx.eval_basis_grid(basis, ds.time)
        want = penalized_loglik_ref(gamma, alphas, 0.01, ds, 0.5, B)
        got = sx.penalized_loglik(cb, ds, ws)
        assert got == pytest.approx(want, rel=1e-10, abs=tolerance(ds, gamma))

    @bounded
    @given(case=cases())
    @example(case=SINGLE_EVENT)
    def test_warm_start_loglik_matches_reference(self, case):
        ds, gamma, _ = case
        beta = gamma[:, 0]
        value, grad, hess = _loglik_parts(ds, plan_of(ds), beta, order=2)
        assert value == pytest.approx(
            coxph_loglik_ref(beta, ds), rel=1e-10, abs=tolerance(ds, gamma)
        )
        want_value, want_grad, want_hess = loglik_parts_loop(ds, beta)
        assert value == want_value
        np.testing.assert_array_equal(grad, want_grad)
        np.testing.assert_array_equal(hess, want_hess)

    @bounded
    @given(case=cases(need_event=False), thresholded=st.booleans())
    @example(case=SINGLE_EVENT, thresholded=True)
    @example(
        case=(sx.make_dataset([1.0, 2.0], [False, False], [[1.0], [2.0]]),
              np.ones((1, Q)), np.array([0.5])),
        thresholded=True,
    )
    def test_heldout_error_matches_direct_sum(self, case, thresholded):
        ds, gamma, alphas = case
        model = SimpleNamespace(
            basis=sx.make_basis(K, D, ds.tau),
            gamma_hat=gamma,
            alphas=alphas if thresholded else None,
        )
        got = _heldout_error(model, ds)
        if ds.n_events == 0:
            assert got == 0.0
            return
        B = scipy_basis_matrix(ds.time, K, D, ds.tau)
        want = 0.0
        for i in ds.event_rows:
            theta = gamma @ B[i]
            beta = theta
            if thresholded:
                beta = [soft_threshold_ref(t, a) for t, a in zip(theta, alphas)]
            terms = [float(ds.covariates[l] @ beta) for l in risk_set_ref(ds.time, i)]
            m = max(terms)
            own = float(ds.covariates[i] @ beta)
            want -= own - (m + math.log(sum(math.exp(v - m) for v in terms)))
        assert got == pytest.approx(want, rel=1e-10, abs=tolerance(ds, gamma))


def censored_head_case(thresholded):
    """n = 400 with heavy ties, the earliest 60% of times censored, p = 3.

    Every risk set starts past row 240, so the weight blocks are narrower
    than the predictor rows they come from.
    """
    rng = np.random.default_rng(21)
    n = 400
    time = np.sort(rng.integers(1, 120, n)) * 0.025
    event = rng.random(n) < 0.8
    event[: int(0.6 * n)] = False
    ds = sx.make_dataset(time, event, rng.choice([1.0, 30.0]) * rng.normal(size=(n, 3)))
    ws = sx.make_workspace(ds, sx.make_basis(K, D, ds.tau), 0.5)
    cb = sx.CoefficientBlock(
        gamma=0.3 * rng.normal(size=(3, Q)),
        thresholds=np.array([0.05, 0.1, 0.2]) if thresholded else None,
        eta=0.01,
    )
    return ds, ws, cb


def equal_maxima_case():
    """n = 300 with binary covariates, the subject of the longest time all
    zeros and negative regtv coefficients.

    Every effect is negative, so every predictor is at most 0.0, and each
    event's risk-set maximum is the 0.0 of that subject, which is in every
    risk set; the event times are distinct, so the rows of predictors
    differ.
    """
    rng = np.random.default_rng(8)
    n = 300
    time = rng.permutation(n) + 1.0
    event = rng.random(n) < 0.7
    Z = rng.integers(0, 2, (n, 3)).astype(float)
    Z[time.argmax()] = 0.0
    ds = sx.make_dataset(time, event, Z)
    ws = sx.make_workspace(ds, sx.make_basis(K, D, ds.tau), 0.5)
    cb = sx.CoefficientBlock(gamma=-rng.uniform(0.1, 2.0, (3, Q)), thresholds=None, eta=0.01)
    return ds, ws, cb


def chunk_count(ds):
    return -(-ds.n_events // max(1, likelihood._CHUNK_BUDGET // ds.n))


def counting_weights(monkeypatch):
    """Wrap _risk_weights; returns the list that gets one entry per call."""
    fresh = []
    real = likelihood._risk_weights
    monkeypatch.setattr(likelihood, "_risk_weights", lambda *a: fresh.append(1) or real(*a))
    return fresh


def kept_blocks(ws):
    """The weight blocks the workspace's plan keeps, or None."""
    entry = ws.risk_sets._kept
    return None if entry is None else entry[2]


def kept_totals(cb, ds, ws):
    """The plan's kept totals and the score covariance read from them."""
    return (*ws.risk_sets._kept[3], likelihood.score_covariance(cb, ds, ws))


def scan_and_reuse(cb, ds, ws, monkeypatch, derivative_cb=None):
    """(1 if weights were kept, else 0, fresh weight formations during the
    derivative scan at derivative_cb (default cb) and the score covariance
    after it, reused result, its kept totals and score covariance)."""
    value = sx.penalized_loglik(cb, ds, ws)
    kept = int(kept_blocks(ws) is not None)
    with monkeypatch.context() as patch:
        fresh = counting_weights(patch)
        got = sx.value_and_derivatives(derivative_cb or cb, ds, ws)
        # the current iterate never pins a trial's weight blocks
        assert kept_blocks(ws) is None
        totals = kept_totals(derivative_cb or cb, ds, ws)
    if derivative_cb is None:
        assert value.hex() == got[0].hex()
    return kept, len(fresh), got, totals


def fresh_scan(cb, ds, ws):
    """(value_and_derivatives result, its totals and score covariance) from a
    new workspace, which has kept nothing."""
    ws = sx.make_workspace(ds, ws.basis, ws.rho)
    return sx.value_and_derivatives(cb, ds, ws), kept_totals(cb, ds, ws)


def assert_same_scan(got, got_totals, want, want_totals):
    assert got[0].hex() == want[0].hex()
    for g, w in zip((*got[1:], *got_totals), (*want[1:], *want_totals)):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


class TestReusedWeights:
    # budget: None keeps the default; "fits" is exactly the m x n predictors
    # of one chunk; "over" gives two chunks of about m / 2 events and keeps
    # nothing; 2000 gives five-event chunks and keeps nothing
    @pytest.mark.parametrize("budget, kept", [(None, 1), ("fits", 1), ("over", 0), (2000, 0)])
    @pytest.mark.parametrize("thresholded", [True, False], ids=["sttv", "regtv"])
    def test_reused_weights_match_fresh_scan_bitwise(self, monkeypatch, budget, kept,
                                                     thresholded):
        ds, ws, cb = censored_head_case(thresholded)
        want, want_totals = fresh_scan(cb, ds, ws)
        budget = {"fits": ds.n_events * ds.n,
                  "over": (ds.n_events // 2 + 1) * ds.n}.get(budget, budget)
        if budget is not None:
            monkeypatch.setattr(likelihood, "_CHUNK_BUDGET", budget)
        n_chunks = chunk_count(ds)
        assert n_chunks == 1 if kept else n_chunks > 1
        got_kept, fresh, got, got_totals = scan_and_reuse(cb, ds, ws, monkeypatch)
        # without kept weights every chunk forms its weights afresh; the
        # score covariance reads the derivative scan's totals either way
        assert (got_kept, fresh) == (kept, 0 if kept else n_chunks)
        assert_same_scan(got, got_totals, want, want_totals)

    @pytest.mark.parametrize("over", [False, True], ids=["fits", "over"])
    def test_scan_past_budget_stores_no_weights(self, monkeypatch, over):
        """Past the budget, each weight block is freed once the next is formed."""
        ds, ws, cb = censored_head_case(True)
        monkeypatch.setattr(likelihood, "_CHUNK_BUDGET", ds.n_events * ds.n - over)
        real = likelihood._risk_weights
        alive = []   # per block: earlier blocks still referenced when it is yielded
        refs = []

        def watched(*args):
            for W, top, s0, fresh in real(*args):
                alive.append(sum(ref() is not None for ref in refs))
                refs.append(weakref.ref(W))
                yield W, top, s0, fresh

        monkeypatch.setattr(likelihood, "_risk_weights", watched)
        sx.penalized_loglik(cb, ds, ws)
        assert len(alive) > 2
        if over:
            # the consumer's loop variable holds only the block before
            assert ws.risk_sets._kept is None and max(alive) == 1
        else:
            assert len(kept_blocks(ws)) == len(alive)
            assert alive == list(range(len(alive)))

    def test_next_trial_frees_the_last_trials_weights(self, monkeypatch):
        """A trial's kept blocks are freed before the next trial forms its own."""
        ds, ws, cb = censored_head_case(True)
        sx.penalized_loglik(cb, ds, ws)
        refs = [weakref.ref(W) for W, _, _, _ in kept_blocks(ws)]
        real = likelihood._risk_weights
        alive = []   # per block of the next trial: last trial's blocks still referenced

        def watched(*args):
            for block in real(*args):
                alive.append(sum(ref() is not None for ref in refs))
                yield block

        monkeypatch.setattr(likelihood, "_risk_weights", watched)
        sx.penalized_loglik(replace(cb, gamma=0.5 * cb.gamma), ds, ws)
        assert alive and max(alive) == 0

    @bounded
    @given(case=cases(), thresholded=st.booleans())
    @example(case=SINGLE_EVENT, thresholded=True)
    def test_reuse_on_adversarial_cases(self, case, thresholded):
        ds, gamma, alphas = case
        ws = sx.make_workspace(ds, sx.make_basis(K, D, ds.tau), 0.5)
        cb = sx.CoefficientBlock(
            gamma=gamma, thresholds=alphas if thresholded else None, eta=0.01
        )
        want, want_totals = fresh_scan(cb, ds, ws)
        with pytest.MonkeyPatch.context() as monkeypatch:
            kept, fresh, got, got_totals = scan_and_reuse(cb, ds, ws, monkeypatch)
        assert (kept, fresh) == (1, 0)
        assert_same_scan(got, got_totals, want, want_totals)

    def test_weights_of_other_coefficients_are_not_used(self, monkeypatch):
        ds, ws, cb = censored_head_case(True)
        other = replace(cb, gamma=1.5 * cb.gamma)
        kept, fresh, got, got_totals = scan_and_reuse(other, ds, ws, monkeypatch,
                                                      derivative_cb=cb)
        assert (kept, fresh) == (1, 1)
        assert_same_scan(got, got_totals, *fresh_scan(cb, ds, ws))

    def test_equal_values_in_another_block_reuse_the_weights(self, monkeypatch):
        # the plan keys its entry by value, so a distinct block (and array)
        # holding the same coefficients finds the trial's weights
        ds, ws, cb = censored_head_case(True)
        twin = replace(cb, gamma=cb.gamma.copy())
        assert twin is not cb and twin.gamma is not cb.gamma
        kept, fresh, got, got_totals = scan_and_reuse(cb, ds, ws, monkeypatch,
                                                      derivative_cb=twin)
        assert (kept, fresh) == (1, 0)
        assert_same_scan(got, got_totals, *fresh_scan(twin, ds, ws))

    @pytest.mark.parametrize("thresholded", [True, False], ids=["sttv", "regtv"])
    def test_gamma_changed_in_place_forms_fresh_weights(self, monkeypatch, thresholded):
        # an entry keyed by the block's identity would hand back the weights
        # of the coefficients before the change
        ds, ws, cb = censored_head_case(thresholded)
        sx.penalized_loglik(cb, ds, ws)
        assert kept_blocks(ws) is not None
        cb.gamma[:] *= 1.5
        with monkeypatch.context() as patch:
            fresh = counting_weights(patch)
            got = sx.value_and_derivatives(cb, ds, ws)
            got_totals = kept_totals(cb, ds, ws)
        assert len(fresh) == 1
        assert_same_scan(got, got_totals, *fresh_scan(cb, ds, ws))

    def test_failed_scan_leaves_nothing_kept(self):
        ds, ws, cb = censored_head_case(False)
        sx.penalized_loglik(cb, ds, ws)
        assert kept_blocks(ws) is not None
        huge = replace(cb, gamma=np.full_like(cb.gamma, np.finfo(float).max))
        with pytest.raises(sx.NumericError), np.errstate(over="ignore", invalid="ignore"):
            sx.penalized_loglik(huge, ds, ws)
        assert ws.risk_sets._kept is None


class TestNonFinitePredictors:
    """Non-finite predictors raise NumericError naming input rows.

    The suite turns a RuntimeWarning into an error, so these also check
    that the overflow in the product does not warn ahead of the typed error.
    """

    @staticmethod
    def shuffled_case(big):
        # storage order is input rows 1, 3, 2, 4, 0: the large covariate of
        # input row 0 is the last stored row, in every risk set
        ds = sx.make_dataset([5.0, 1.0, 3.0, 2.0, 4.0], [True] * 5,
                             [[big], [1.0], [2.0], [-1.0], [0.5]])
        return ds, sx.make_workspace(ds, sx.make_basis(K, D, ds.tau), 0.5)

    def test_overflowing_product_names_input_rows(self):
        ds, ws = self.shuffled_case(1e306)
        cb = sx.CoefficientBlock(gamma=np.full((1, Q), 1e3), thresholds=None, eta=0.01)
        with pytest.raises(sx.NumericError,
                           match="input row 0 at the event time of input row 1$"):
            sx.penalized_loglik(cb, ds, ws)

    def test_large_finite_product_scans(self):
        # p max|H| max|Z| = 1e303 fails the bound, so the full check runs
        ds, ws = self.shuffled_case(1e300)
        cb = sx.CoefficientBlock(gamma=np.full((1, Q), 1e3), thresholds=None, eta=0.01)
        assert np.isfinite(sx.penalized_loglik(cb, ds, ws))

    @pytest.mark.parametrize("event", [0, 2, 4])
    def test_nan_effect_row_names_input_rows(self, event):
        ds, _ = self.shuffled_case(1.0)
        events = ds.event_rows
        H = np.ones((events.shape[0], 1))
        H[event, 0] = np.nan
        owner = int(ds.sort_index[events[event]])
        with pytest.raises(sx.NumericError,
                           match=f"input row 1 at the event time of input row {owner}$"):
            likelihood._event_totals(H, ds, events, plan_of(ds), 0)
