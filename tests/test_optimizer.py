"""Full model fitting for both variants and curve extraction."""

from dataclasses import replace

import numpy as np
import pytest

import sttvcox as sx
from sttvcox import optimizer


class TestFit:
    def test_objective_path_and_gradient(self, dataset_200, fitted_sttv_200):
        path = np.asarray(fitted_sttv_200.loglik_path)
        assert np.all(np.diff(path) >= -1e-10)
        assert fitted_sttv_200.converged
        assert fitted_sttv_200.final_grad_norm < 1e-6

    def test_negligible_threshold_reproduces_regtv(self, dataset_200):
        grid = np.linspace(0, dataset_200.tau, 120)
        sttv = sx.fit(
            dataset_200,
            sx.FitConfig(
                K=3,
                variant="sttv",
                alpha_override=(1e-8, 1e-8, 1e-8),
                eta=1e-8,
                seed=11,
            ),
        )
        regtv = sx.fit(dataset_200, sx.FitConfig(K=3, variant="regtv", seed=11))
        c1 = sx.estimate_curves(sttv, grid)
        c2 = sx.estimate_curves(regtv, grid)
        assert np.max(np.abs(c1.beta_hat - c2.beta_hat)) < 1e-3

    def test_zero_events_rejected_before_iteration(self):
        ds = sx.make_dataset([1.0, 2.0], [False, False], [[1.0], [0.0]], tau=2.0)
        with pytest.raises(sx.ValidationError):
            sx.fit(ds, sx.FitConfig(K=2, variant="sttv"))

    def test_regtv_warns_when_warm_start_separates(self, caplog):
        ds = sx.make_dataset([1.0, 2.0], [True, False], [[1.0], [0.0]])
        with caplog.at_level("WARNING", logger="sttvcox.optimizer"):
            m = sx.fit(ds, sx.FitConfig(K=1, d=1, variant="regtv"))
        assert m.warm_start is None
        assert any("warm start failed" in r.getMessage() for r in caplog.records)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        sc = sx.Scenario(n=80, covariance="ind", seed=12)
        ds = sx.generate(sc)
        perm = rng.permutation(ds.n)
        shuffled = sx.make_dataset(
            ds.time[perm], ds.event[perm], ds.covariates[perm], tau=ds.tau
        )
        cfg = sx.FitConfig(K=2, variant="sttv", seed=12)
        g1 = sx.fit(ds, cfg).gamma_hat
        g2 = sx.fit(shuffled, cfg).gamma_hat
        np.testing.assert_allclose(g1, g2, atol=1e-8)

    def test_covariate_scaling_invariance(self):
        sc = sx.Scenario(n=120, covariance="ind", seed=31)
        ds = sx.generate(sc)
        c = 2.5
        scaled = sx.make_dataset(
            ds.time, ds.event, ds.covariates * np.array([c, 1.0, 1.0]), tau=ds.tau
        )
        # the ridge acts on the curve scale, so exact equivariance under
        # covariate rescaling only holds with a negligible penalty weight
        # (at the default rho the predictor gap is ~2e-2)
        cfg = sx.FitConfig(K=2, variant="sttv", seed=31, rho=1e-12)
        m1 = sx.fit(ds, cfg)
        m2 = sx.fit(scaled, cfg)
        B = sx.eval_basis_grid(m1.basis, ds.time[ds.event])
        Z1 = ds.covariates[ds.event]
        Z2 = scaled.covariates[ds.event]

        def predictor(model, Z):
            out = np.zeros(len(Z))
            for j in range(model.p):
                theta = B @ model.gamma_hat[j]
                h = sx.smooth_threshold(theta, model.alphas[j], model.config.eta)
                out += Z[:, j] * h
            return out

        np.testing.assert_allclose(
            predictor(m1, Z1), predictor(m2, Z2), atol=1e-6
        )

    def test_alpha_rule_uses_warm_start(self, dataset_200, fitted_sttv_200):
        warm = sx.fit_coxph(dataset_200)
        want = np.maximum(0.5 * np.abs(warm.beta), 1e-3)
        np.testing.assert_allclose(fitted_sttv_200.alphas, want, rtol=1e-12)

    def test_alpha_override_wins(self, dataset_200):
        m = sx.fit(
            dataset_200,
            sx.FitConfig(K=2, variant="sttv", alpha_override=(0.3, 0.4, 0.5)),
        )
        np.testing.assert_allclose(m.alphas, [0.3, 0.4, 0.5])

    def test_alpha_override_length_checked(self, dataset_200):
        with pytest.raises(sx.ValidationError):
            sx.fit(
                dataset_200,
                sx.FitConfig(K=2, variant="sttv", alpha_override=(0.3, 0.4)),
            )

    def test_multistart_never_worse(self, dataset_200):
        cfg1 = sx.FitConfig(K=2, variant="sttv", seed=5, multistart=1)
        cfg3 = sx.FitConfig(K=2, variant="sttv", seed=5, multistart=3)
        v1 = sx.fit(dataset_200, cfg1).loglik_path[-1]
        v3 = sx.fit(dataset_200, cfg3).loglik_path[-1]
        assert v3 >= v1 - 1e-9

    def test_derivatives_once_per_accepted_iterate(self, dataset_200, monkeypatch):
        calls = {"value_and_derivatives": 0, "penalized_loglik": 0}

        def counted(name):
            fn = getattr(optimizer, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(optimizer, name, wrapper)

        counted("value_and_derivatives")
        counted("penalized_loglik")
        m = sx.fit(dataset_200, sx.FitConfig(K=2, variant="sttv", seed=5, multistart=1))
        assert m.n_iter > 0
        assert calls["value_and_derivatives"] == m.n_iter + 1
        assert calls["penalized_loglik"] >= m.n_iter

    @pytest.mark.parametrize("variant, seed", [("sttv", 0), ("regtv", 2)])
    @pytest.mark.parametrize("multistart", [1, 3])
    def test_score_cov_is_score_covariance_at_the_optimum(self, dataset_200, variant,
                                                          seed, multistart):
        cfg = sx.FitConfig(K=2, variant=variant, seed=seed, multistart=multistart)
        m = sx.fit(dataset_200, cfg)
        if multistart > 1:
            # at these seeds the first of three starts wins, so the meat must
            # come from the winning start's scan, not from the last one run
            first = sx.fit(dataset_200, replace(cfg, multistart=1))
            assert m.gamma_hat.tobytes() == first.gamma_hat.tobytes()
        ws = sx.make_workspace(dataset_200, m.basis, m.rho)
        cb = sx.CoefficientBlock(gamma=m.gamma_hat, thresholds=m.alphas, eta=cfg.eta)
        want = sx.score_covariance(cb, dataset_200, ws)
        assert m.score_cov.tobytes() == want.tobytes()
        sandwich = m.neg_hessian_inv @ want @ m.neg_hessian_inv
        assert m.sandwich.tobytes() == (0.5 * (sandwich + sandwich.T)).tobytes()

    def test_debug_line_per_accepted_iteration(self, dataset_200, caplog):
        with caplog.at_level("DEBUG", logger="sttvcox.optimizer"):
            m = sx.fit(dataset_200, sx.FitConfig(K=2, variant="sttv", seed=5))
        lines = [r.getMessage() for r in caplog.records
                 if r.levelname == "DEBUG" and r.getMessage().startswith("newton iter")]
        assert len(lines) == m.n_iter
        assert lines[-1].startswith(f"newton iter {m.n_iter}:")
        assert f"objective {m.loglik_path[-1]:.12g}," in lines[-1]
        assert f"gradient max-norm {m.final_grad_norm:.3e}," in lines[-1]
        for field in ("lambda ", "step scale ", "halvings ", "trial evaluations "):
            assert all(field in line for line in lines)

    def test_config_validation(self):
        base = sx.FitConfig(K=2, variant="sttv")
        bad = [
            {"K": 0}, {"eta": 0.0}, {"variant": "nope"},
            {"K": float("inf")}, {"K": float("nan")}, {"K": 2.5},
            {"alpha_scale": 0.0}, {"alpha_scale": -1.0},
            {"alpha_override": (0.1, 0.0, 0.2)}, {"alpha_override": (-0.1,)},
            {"max_iter": 0}, {"multistart": float("nan")}, {"multistart": 0},
            {"rho": -1.0}, {"tol_grad": float("nan")}, {"seed": -1},
        ]
        for change in bad:
            with pytest.raises(sx.ValidationError):
                sx.FitConfig(**{"K": 2, "variant": "sttv", **change})
            # replace builds a new config, so it runs the same checks
            with pytest.raises(sx.ValidationError):
                replace(base, **change)


class TestEstimateCurves:
    def test_dead_zone_flat_zero(self, dataset_200):
        m = sx.fit(dataset_200, sx.FitConfig(K=2, variant="sttv", seed=11))
        # rebuild with an alpha just above the largest |theta| (dead zone)
        grid = np.linspace(0, dataset_200.tau, 50)
        B = sx.eval_basis_grid(m.basis, grid)
        theta = m.gamma_hat @ B.T
        big = np.abs(theta).max() + 1.0
        m2 = sx.fit(
            dataset_200,
            sx.FitConfig(K=2, variant="sttv", alpha_override=(big,) * 3, seed=11),
        )
        curves = sx.estimate_curves(m2, grid)
        flat = np.abs(m2.gamma_hat @ B.T) < big
        assert np.all(curves.beta_hat[flat] == 0.0)
        assert np.all(curves.zero_flags[flat])

    def test_beta_is_thresholded_theta_pointwise(self, fitted_sttv_200):
        grid = np.linspace(0, 3.0, 73)
        curves = sx.estimate_curves(fitted_sttv_200, grid)
        for j in range(3):
            want = sx.soft_threshold(
                curves.theta_hat[j], fitted_sttv_200.alphas[j]
            )
            np.testing.assert_array_equal(curves.beta_hat[j], want)

    def test_regtv_never_thresholds(self, dataset_200):
        m = sx.fit(dataset_200, sx.FitConfig(K=2, variant="regtv", seed=11))
        curves = sx.estimate_curves(m, np.linspace(0, 3, 40))
        np.testing.assert_array_equal(curves.beta_hat, curves.theta_hat)
        assert not curves.zero_flags.any()

    def test_grid_out_of_range(self, fitted_sttv_200):
        with pytest.raises(sx.ValidationError):
            sx.estimate_curves(fitted_sttv_200, np.array([-0.1, 1.0]))
        with pytest.raises(sx.ValidationError):
            sx.estimate_curves(fitted_sttv_200, np.array([1.0, 3.5]))

    def test_interval_brackets_point_estimate(self, fitted_sttv_200):
        grid = np.linspace(0, 3, 60)
        curves = sx.estimate_curves(fitted_sttv_200, grid)
        assert np.all(curves.ci_lower <= curves.beta_hat + 1e-12)
        assert np.all(curves.beta_hat <= curves.ci_upper + 1e-12)

    def test_sigma_positive(self, fitted_sttv_200):
        curves = sx.estimate_curves(fitted_sttv_200, np.linspace(0.1, 2.9, 30))
        assert np.all(curves.sigma_hat > 0)
