"""Penalized smoothed partial likelihood: value, gradient, Hessian, score."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sttvcox as sx
from conftest import make_random_dataset
from oracles import (
    fd_gradient,
    linear_predictor_ref,
    penalized_loglik_ref,
    plain_spline_loglik_ref,
    score_covariance_ref,
)
from sttvcox import likelihood, threshold


def build(ds, K=2, d=2, rho=0.0):
    basis = sx.make_basis(K, d, ds.tau)
    ws = sx.make_workspace(ds, basis, rho)
    return basis, ws


def basis_matrix(ds, basis):
    return sx.eval_basis_grid(basis, ds.time)


def linear_predictor(cb, z, Bt):
    """g(z, t) = sum_j z_j h_eta(B(t)' gamma_j, alpha_j), formed as the scan forms it."""
    return float(z @ threshold._effect(cb.gamma @ Bt, cb.thresholds, cb.eta)[0])


class TestLinearPredictor:
    def test_zero_covariates(self):
        cb = sx.CoefficientBlock(
            gamma=np.ones((2, 4)), thresholds=np.array([1.0, 1.0]), eta=0.01
        )
        assert linear_predictor(cb, np.zeros(2), np.full(4, 0.25)) == 0.0

    def test_constant_row_reproduces_shifted_value(self):
        # constant gamma row c with c > alpha and eta = 0: h = c - alpha
        c, alpha = 2.5, 1.0
        cb = sx.CoefficientBlock(
            gamma=np.full((1, 4), c), thresholds=np.array([alpha]), eta=0.0
        )
        b = sx.make_basis(1, 3, 1.0)
        Bt = sx.eval_basis_grid(b, [0.37])[0]
        z = np.array([1.7])
        got = linear_predictor(cb, z, Bt)
        assert got == pytest.approx(1.7 * (c - alpha), rel=1e-12)

    def test_matches_reference(self):
        rng = np.random.default_rng(17)
        gamma = rng.normal(size=(3, 5))
        alphas = np.array([0.5, 1.0, 0.2])
        Bt = rng.dirichlet(np.ones(5))
        z = rng.normal(size=3)
        cb = sx.CoefficientBlock(gamma=gamma, thresholds=alphas, eta=0.01)
        want = linear_predictor_ref(gamma, alphas, 0.01, z, Bt)
        assert linear_predictor(cb, z, Bt) == pytest.approx(want, rel=1e-12)


class TestPenalizedLoglik:
    def test_two_point_hand_value(self):
        ds = sx.make_dataset([1.0, 2.0], [True, False], [[1.0], [0.0]])
        basis, ws = build(ds, K=1, d=1, rho=0.0)
        cb = sx.CoefficientBlock(
            gamma=np.zeros((1, basis.q)), thresholds=np.array([1.0]), eta=0.001
        )
        assert sx.penalized_loglik(cb, ds, ws) == pytest.approx(-math.log(2))

    def test_zero_gamma_counts_risk_sets(self):
        ds = make_random_dataset(4, n=15, p=2)
        basis, ws = build(ds, rho=3.7)
        cb = sx.CoefficientBlock(
            gamma=np.zeros((2, basis.q)), thresholds=np.ones(2), eta=0.001
        )
        want = sum(
            -math.log(ds.n - ds.risk_start(i))
            for i in range(ds.n)
            if ds.event[i]
        )
        assert sx.penalized_loglik(cb, ds, ws) == pytest.approx(want, rel=1e-12)

    def test_matches_straight_line_oracle(self):
        for seed in range(4):
            ds = make_random_dataset(seed, n=12, p=2)
            basis, ws = build(ds, K=2, d=2, rho=0.31)
            rng = np.random.default_rng(seed + 100)
            gamma = rng.normal(scale=0.7, size=(2, basis.q))
            alphas = np.array([0.4, 0.9])
            cb = sx.CoefficientBlock(gamma=gamma, thresholds=alphas, eta=0.01)
            want = penalized_loglik_ref(
                gamma, alphas, 0.01, ds, 0.31, basis_matrix(ds, basis)
            )
            assert sx.penalized_loglik(cb, ds, ws) == pytest.approx(want, rel=1e-10)

    def test_eta_shrink_changes_little(self):
        ds = make_random_dataset(8, n=20, p=2)
        basis, ws = build(ds, rho=0.0)
        rng = np.random.default_rng(8)
        gamma = rng.normal(scale=0.5, size=(2, basis.q))
        alphas = np.array([0.5, 0.5])
        v1 = sx.penalized_loglik(
            sx.CoefficientBlock(gamma=gamma, thresholds=alphas, eta=1e-3), ds, ws
        )
        v2 = sx.penalized_loglik(
            sx.CoefficientBlock(gamma=gamma, thresholds=alphas, eta=1e-6), ds, ws
        )
        bound = 2e-3 * np.abs(ds.covariates).sum()
        assert abs(v1 - v2) <= bound

    def test_permutation_invariance(self):
        rng = np.random.default_rng(23)
        time = rng.exponential(1, 18)
        event = rng.random(18) > 0.3
        Z = rng.normal(size=(18, 2))
        perm = rng.permutation(18)
        ds1 = sx.make_dataset(time, event, Z)
        ds2 = sx.make_dataset(time[perm], event[perm], Z[perm])
        basis = sx.make_basis(2, 2, ds1.tau)
        gamma = rng.normal(size=(2, basis.q))
        cb = sx.CoefficientBlock(gamma=gamma, thresholds=np.ones(2), eta=0.01)
        v1 = sx.penalized_loglik(cb, ds1, sx.make_workspace(ds1, basis, 0.1))
        v2 = sx.penalized_loglik(cb, ds2, sx.make_workspace(ds2, basis, 0.1))
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_finite_at_large_gamma(self):
        ds = make_random_dataset(3, n=20, p=1)
        basis, ws = build(ds)
        cb = sx.CoefficientBlock(
            gamma=np.full((1, basis.q), 50.0), thresholds=np.array([1.0]), eta=0.001
        )
        assert np.isfinite(sx.penalized_loglik(cb, ds, ws))

    def test_identity_variant_matches_plain_spline_oracle(self):
        # negligible threshold and tiny eta reduce h to the identity
        for seed in range(3):
            ds = make_random_dataset(seed + 40, n=14, p=2)
            basis, ws = build(ds, K=2, d=2, rho=0.13)
            rng = np.random.default_rng(seed)
            gamma = rng.normal(scale=0.4, size=(2, basis.q))
            cb = sx.CoefficientBlock(
                gamma=gamma, thresholds=np.full(2, 1e-12), eta=1e-12
            )
            got = sx.penalized_loglik(cb, ds, ws)
            want = plain_spline_loglik_ref(gamma, ds, 0.13, basis_matrix(ds, basis))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestGradientHessian:
    def test_eta_zero_rejected(self):
        ds = make_random_dataset(1, n=10, p=1)
        basis, ws = build(ds)
        cb = sx.CoefficientBlock(
            gamma=np.zeros((1, basis.q)), thresholds=np.array([1.0]), eta=0.0
        )
        with pytest.raises(sx.ValidationError):
            sx.gradient(cb, ds, ws)

    def test_dead_zone_gradient_vanishes(self):
        ds = make_random_dataset(6, n=15, p=2)
        basis, ws = build(ds, rho=0.0)
        eta = 1e-4
        gamma = np.full((2, basis.q), 0.05)  # |theta| = 0.05 << alpha - 5 eta
        cb = sx.CoefficientBlock(gamma=gamma, thresholds=np.ones(2), eta=eta)
        assert np.max(np.abs(sx.gradient(cb, ds, ws))) < 1e-6

    def test_no_event_gradient_is_penalty_only(self):
        ds = sx.make_dataset([1.0, 2.0], [False, False], [[1.0], [0.5]], tau=2.0)
        basis = sx.make_basis(2, 2, 2.0)
        ws = sx.make_workspace(ds, basis, 0.7)
        rng = np.random.default_rng(14)
        gamma = rng.normal(size=(1, basis.q))
        cb = sx.CoefficientBlock(gamma=gamma, thresholds=np.array([1.0]), eta=0.01)
        want = (-2.0 * 0.7 * (ws.penalty_gram @ gamma[0])).ravel()
        np.testing.assert_allclose(sx.gradient(cb, ds, ws), want, atol=1e-12)

    def test_no_event_hessian_is_penalty_only(self):
        ds = sx.make_dataset([1.0, 2.0], [False, False], [[1.0], [0.5]], tau=2.0)
        basis = sx.make_basis(2, 2, 2.0)
        ws = sx.make_workspace(ds, basis, 0.7)
        cb = sx.CoefficientBlock(
            gamma=np.zeros((1, basis.q)), thresholds=np.array([1.0]), eta=0.01
        )
        want = -2.0 * 0.7 * ws.penalty_gram
        np.testing.assert_allclose(sx.hessian(cb, ds, ws), want, atol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_hessian_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([10, 30]))
        p = int(rng.choice([1, 3]))
        K, d = (2, 2) if rng.random() < 0.5 else (3, 3)  # q = 4 or 6
        ds = make_random_dataset(seed + 1000, n=n, p=p)
        basis = sx.make_basis(K, d, ds.tau)
        ws = sx.make_workspace(ds, basis, 0.05)
        q = basis.q
        gamma = rng.normal(scale=0.5, size=(p, q))
        alphas = rng.uniform(0.2, 0.8, size=p)
        eta = 0.01

        def value(flat):
            cb = sx.CoefficientBlock(
                gamma=flat.reshape(p, q), thresholds=alphas, eta=eta
            )
            return sx.penalized_loglik(cb, ds, ws)

        def grad(flat):
            cb = sx.CoefficientBlock(
                gamma=flat.reshape(p, q), thresholds=alphas, eta=eta
            )
            return sx.gradient(cb, ds, ws)

        flat = gamma.ravel()
        g_exact = grad(flat)
        g_fd = fd_gradient(value, flat, h=1e-6)
        scale = np.maximum(np.abs(g_fd), 1e-4)
        assert np.max(np.abs(g_exact - g_fd) / scale) < 1e-5

        cb = sx.CoefficientBlock(gamma=gamma, thresholds=alphas, eta=eta)
        H_exact = sx.hessian(cb, ds, ws)
        h = 1e-5
        H_fd = np.zeros_like(H_exact)
        for k in range(flat.size):
            e = np.zeros_like(flat)
            e[k] = h
            H_fd[:, k] = (grad(flat + e) - grad(flat - e)) / (2 * h)
        H_fd = 0.5 * (H_fd + H_fd.T)
        scale = np.maximum(np.abs(H_fd), 1e-3)
        assert np.max(np.abs(H_exact - H_fd) / scale) < 1e-4

    def test_hessian_symmetric(self):
        ds = make_random_dataset(77, n=20, p=2)
        basis, ws = build(ds, K=2, d=2, rho=0.2)
        rng = np.random.default_rng(7)
        cb = sx.CoefficientBlock(
            gamma=rng.normal(size=(2, basis.q)),
            thresholds=np.array([0.5, 0.5]),
            eta=0.01,
        )
        H = sx.hessian(cb, ds, ws)
        assert np.max(np.abs(H - H.T)) < 1e-10


class TestScoreCovariance:
    def test_singleton_risk_set_contributes_nothing(self):
        ds = sx.make_dataset([1.0, 2.0], [False, True], [[1.0], [2.0]])
        basis, ws = build(ds, K=1, d=1)
        cb = sx.CoefficientBlock(
            gamma=np.array([[0.3, 0.1]]), thresholds=np.array([0.2]), eta=0.01
        )
        np.testing.assert_allclose(
            sx.score_covariance(cb, ds, ws), 0.0, atol=1e-14
        )

    def test_identical_subjects_no_variability(self):
        ds = sx.make_dataset([1.0, 2.0], [True, False], [[1.5], [1.5]])
        basis, ws = build(ds, K=1, d=1)
        cb = sx.CoefficientBlock(
            gamma=np.zeros((1, 2)), thresholds=np.array([0.5]), eta=0.01
        )
        np.testing.assert_allclose(
            sx.score_covariance(cb, ds, ws), 0.0, atol=1e-14
        )

    def test_matches_literal_reimplementation(self):
        for seed in range(3):
            ds = make_random_dataset(seed + 60, n=14, p=2)
            basis, ws = build(ds, K=2, d=2)
            rng = np.random.default_rng(seed)
            gamma = rng.normal(scale=0.6, size=(2, basis.q))
            alphas = np.array([0.4, 0.7])
            cb = sx.CoefficientBlock(gamma=gamma, thresholds=alphas, eta=0.01)
            got = sx.score_covariance(cb, ds, ws)
            want = score_covariance_ref(
                gamma, alphas, 0.01, ds, basis_matrix(ds, basis)
            )
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)


class TestWorkspace:
    def test_penalty_gram_psd_and_symmetric(self):
        ds = make_random_dataset(5, n=25, p=2)
        basis = sx.make_basis(3, 3, ds.tau)
        ws = sx.make_workspace(ds, basis, 1e-4)
        G = ws.penalty_gram
        np.testing.assert_allclose(G, G.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(G)) > -1e-10

    def test_penalty_gram_definition(self):
        ds = make_random_dataset(15, n=10, p=1)
        basis = sx.make_basis(2, 2, ds.tau)
        ws = sx.make_workspace(ds, basis, 1e-4)
        B = sx.eval_basis_grid(basis, ds.time)
        np.testing.assert_allclose(ws.penalty_gram, B.T @ B, atol=1e-12)

    def test_dataset_of_same_size_with_other_covariates_rejected(self):
        ds = make_random_dataset(15, n=10, p=2)
        basis, ws = build(ds)
        other = sx.make_dataset(ds.time, ds.event, ds.covariates + 1.0)
        cb = sx.CoefficientBlock(gamma=np.zeros((2, basis.q)), thresholds=None, eta=0.01)
        with pytest.raises(sx.ValidationError, match="different dataset"):
            sx.penalized_loglik(cb, other, ws)
        with pytest.raises(sx.ValidationError, match="different dataset"):
            sx.value_and_derivatives(cb, other, ws)
        # equal covariates in another array are the same dataset
        same = sx.make_dataset(ds.time, ds.event, ds.covariates.copy())
        assert same.covariates is not ds.covariates
        assert sx.penalized_loglik(cb, same, ws) == sx.penalized_loglik(cb, ds, ws)

    def test_dataset_with_other_times_or_event_flags_rejected(self):
        # the same covariates in the same storage order, scored with the
        # workspace's events and risk sets, would give the other data's value
        rng = np.random.default_rng(0)
        n = 30
        t = np.sort(rng.exponential(1.0, n)) + 0.05
        e = rng.random(n) > 0.3
        Z = rng.normal(size=(n, 2))
        ds = sx.make_dataset(t, e, Z)
        basis, ws = build(ds)
        cb = sx.CoefficientBlock(gamma=np.full((2, basis.q), 0.3), thresholds=None, eta=0.01)
        # flipped event flags; times rounded up to ties, in the same order
        for other in (sx.make_dataset(t, ~e, Z), sx.make_dataset(np.ceil(2.0 * t) / 2.0, e, Z)):
            assert other.covariates.tobytes() == ds.covariates.tobytes()
            with pytest.raises(sx.ValidationError, match="different dataset"):
                sx.penalized_loglik(cb, other, ws)

    def test_dataset_without_events_gets_an_empty_plan(self):
        ds = sx.make_dataset([1.0, 2.0], [False, False], [[1.0], [0.5]], tau=2.0)
        _, ws = build(ds)
        assert ws.block_sum_path is None
        assert ws.band_runs == ()
        assert ws.risk_sets.start_list == [] and ws.risk_sets.views() == []

    def test_arrays_are_read_only(self):
        # the band windows are cut from basis_at_events once; a write to it
        # could put a nonzero outside them
        ds = make_random_dataset(3, n=60, p=3)
        _, ws = build(ds, K=3, d=3)
        assert ws.band_runs
        for name in ("basis_at_times", "penalty_gram", "event_rows", "basis_at_events",
                     "covariates_at_events", "penalty_kron"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(ws, name).flat[0] = 1.0


def einsum_block_sum(M, ws):
    """sum_e M[e, j, k] * B_e B_e' as np.einsum forms it on the workspace's path."""
    B_ev = ws.basis_at_events
    pq = ws.penalty_kron.shape[0]
    return np.einsum(likelihood._BLOCK_SUM, M, B_ev, B_ev,
                     optimize=ws.block_sum_path).reshape(pq, pq)


@st.composite
def block_sum_cases(draw):
    """(workspace, M) for m from 1 to a few thousand events, p from 1 to 5.

    Times may sit on a grid of half segments, so that events tie and land
    on the knots; the latest time is an event at tau.  M may hold zeros of
    either sign or take one sign throughout.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([1, 2, 5, 29, 30, 31, 120, 400, 1000, 3000]))
    # p = 1 and wide p with few basis functions take the einsum fallback
    p = draw(st.sampled_from([1, 2, 3, 3, 3, 4, 5]))
    K, d = draw(st.integers(1, 15)), draw(st.integers(1, 3))
    tau = 2.0
    if draw(st.booleans()):
        time = tau * rng.integers(1, 2 * K + 1, n) / (2 * K)
    else:
        time = np.minimum(rng.exponential(0.7, n) + 0.01, tau)
    time[rng.integers(n)] = tau
    event = (rng.random(n) > 0.3) | (time == tau)
    ds = sx.make_dataset(time, event, rng.normal(size=(n, p)), tau=tau)
    ws = sx.make_workspace(ds, sx.make_basis(K, d, tau), 0.0)
    M = rng.normal(size=(ds.n_events, p, p))
    kind = draw(st.sampled_from(["dense", "zeros", "signed zeros", "negative", "all zero"]))
    if kind == "zeros":
        M[rng.random(M.shape) < 0.5] = 0.0
    elif kind == "signed zeros":
        M[rng.random(M.shape) < 0.5] = -0.0
    elif kind == "negative":
        M = -np.abs(M)
    elif kind == "all zero":
        M[:] = 0.0
    return ws, M


class TestBlockSum:
    """The Hessian assembly must give np.einsum's bytes, signed zeros too,
    whether it sums over the basis band or falls back to einsum."""

    @settings(max_examples=200, deadline=None)
    @given(case=block_sum_cases())
    def test_block_sum_bytes_equal_einsum(self, case):
        ws, M = case
        assert likelihood._block_sum(M, ws).tobytes() == einsum_block_sum(M, ws).tobytes()

    @pytest.mark.parametrize("n, p, K, band", [(400, 3, 13, True), (5000, 3, 13, True),
                                               (400, 3, 3, True), (400, 1, 3, False),
                                               (400, 4, 1, False)])
    def test_block_sum_branches_bytes_equal_einsum(self, n, p, K, band):
        # p = 1 and p = 4 with q = 4 contract pairwise, the others all at once
        ds = make_random_dataset(21, n=n, p=p)
        _, ws = build(ds, K=K, d=3)
        assert bool(ws.band_runs) == band
        M = np.random.default_rng(5).normal(size=(ds.n_events, p, p))
        assert likelihood._block_sum(M, ws).tobytes() == einsum_block_sum(M, ws).tobytes()

    @pytest.mark.parametrize("p, K", [(3, 13), (2, 3), (1, 3), (4, 1)])
    def test_block_sum_hessian_and_score_covariance_equal_einsum(self, p, K):
        ds = make_random_dataset(8, n=300, p=p)
        basis, ws = build(ds, K=K, d=3, rho=1e-3)
        rng = np.random.default_rng(p + K)
        cb = sx.CoefficientBlock(gamma=rng.normal(scale=0.3, size=(p, basis.q)),
                                 thresholds=np.full(p, 0.2), eta=0.01)
        _, _, Ebar, h1, V, h2 = likelihood._scan(cb, ds, ws, order=2)
        meat = V * h1[:, :, None] * h1[:, None, :]
        M = -meat
        M[:, np.arange(p), np.arange(p)] += (ws.covariates_at_events - Ebar) * h2
        want = einsum_block_sum(M, ws) - 2.0 * ws.rho * ws.penalty_kron
        assert sx.hessian(cb, ds, ws).tobytes() == want.tobytes()
        assert sx.value_and_derivatives(cb, ds, ws)[2].tobytes() == want.tobytes()
        assert sx.score_covariance(cb, ds, ws).tobytes() == einsum_block_sum(meat, ws).tobytes()

    @pytest.mark.parametrize("n", [400, 1000])
    @pytest.mark.parametrize("K", [3, 13])
    def test_benchmark_shapes_take_the_band(self, n, K):
        # a numpy whose greedy path no longer contracts these shapes at
        # once would quietly put every fit back on the dense einsum
        for covariance in ("ind", "ar1", "cs"):
            ds = sx.generate(sx.Scenario(n=n, covariance=covariance, seed=0))
            ws = sx.make_workspace(ds, sx.make_basis(K, 3, ds.tau), 1.0 / n**2)
            assert ws.band_runs, covariance

    def test_cross_validation_fold_shapes_take_the_band(self):
        # the training folds of a 3-fold CV of an n = 400 study
        ds = sx.generate(sx.Scenario(n=400, covariance="ar1", seed=0))
        assignment = sx.assign_folds(ds.n, 3, ds.event, 0)
        for r in range(3):
            rows = assignment != r
            train = sx.make_dataset(ds.time[rows], ds.event[rows], ds.covariates[rows],
                                    tau=ds.tau)
            for K in (3, 13):
                ws = sx.make_workspace(train, sx.make_basis(K, 3, ds.tau), 1.0 / train.n**2)
                assert ws.band_runs, (r, K)
