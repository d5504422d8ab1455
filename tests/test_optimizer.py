"""Full model fitting for both variants and curve extraction."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import sttvcox as sx
from sttvcox import inference, likelihood, model_selection, optimizer, splines


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

    def test_multistart_draws_each_start_just_before_its_fit(self, dataset_200, monkeypatch):
        # a list of all 10**6 starts would hold about 200 MB before the first fit
        real, starts = optimizer._newton, []

        def newton(cb0, *args):
            starts.append(cb0.gamma)
            if len(starts) == 3:
                raise RuntimeError("third start")
            return real(cb0, *args)

        monkeypatch.setattr(optimizer, "_newton", newton)
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match="third start"):
                sx.fit(dataset_200, sx.FitConfig(K=2, variant="regtv", seed=5,
                                                 multistart=10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(starts) == 3 and peak < 20e6
        # the jittered starts come from the seed's Philox stream, in order
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(5)))
        spread = 0.1 * (1.0 + np.abs(starts[0]))
        for got in starts[1:]:
            want = starts[0] + spread * rng.standard_normal(starts[0].shape)
            assert got.tobytes() == want.tobytes()

    def test_overflowing_penalty_is_a_numeric_error(self, dataset_200):
        # 2 rho overflows, and inf * 0 would make the Hessian NaN
        with pytest.raises(sx.NumericError, match="overflows the penalty"):
            sx.fit(dataset_200, sx.FitConfig(K=2, rho=1e308))

    @pytest.mark.parametrize("variant", ["sttv", "regtv"])
    @pytest.mark.parametrize("rho, part", [(1e305, "the Newton step"),
                                           (1e306, "the gradient or Hessian")])
    def test_overflowing_newton_system_is_a_numeric_error(self, variant, rho, part):
        # 2 rho P is finite, but the gradient's penalty term (1e306) or the
        # step's slope (1e305) overflows: a typed error, with no RuntimeWarning
        ds = sx.generate(sx.Scenario(n=200, seed=1))
        with pytest.raises(sx.NumericError, match=re.escape(f"rho {rho} overflows {part}")):
            sx.fit(ds, sx.FitConfig(K=3, rho=rho, variant=variant))

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
                                                          seed, multistart, monkeypatch):
        cfg = sx.FitConfig(K=2, variant=variant, seed=seed, multistart=multistart)
        real_cov, real_totals = optimizer.score_covariance, likelihood._risk_set_totals
        scans = []

        def score_cov(*args):
            # counts the event scans fit's score covariance runs
            with monkeypatch.context() as patch:
                patch.setattr(likelihood, "_risk_set_totals",
                              lambda *a: scans.append(1) or real_totals(*a))
                return real_cov(*args)

        monkeypatch.setattr(optimizer, "score_covariance", score_cov)
        m = sx.fit(dataset_200, cfg)
        monkeypatch.setattr(optimizer, "score_covariance", real_cov)
        # one start: the totals of the last Newton scan serve; three starts,
        # of which the first wins: one fresh scan
        assert len(scans) == (multistart > 1)
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

    def test_every_scan_runs_in_a_public_scan_function(self, dataset_200, monkeypatch):
        # a tracer of the public scan functions then sees every event scan
        real_scan = likelihood._scan
        scans, per_call = [], {}

        def scan(*args, **kwargs):
            scans.append(1)
            return real_scan(*args, **kwargs)

        def public(name, fn):
            def wrapper(*args, **kwargs):
                before = len(scans)
                try:
                    return fn(*args, **kwargs)
                finally:
                    per_call.setdefault(name, []).append(len(scans) - before)
            return wrapper

        monkeypatch.setattr(likelihood, "_scan", scan)
        for module, name in [(optimizer, "penalized_loglik"),
                             (optimizer, "value_and_derivatives"),
                             (optimizer, "score_covariance"),
                             (model_selection, "penalized_loglik")]:
            label = f"{module.__name__}.{name}"
            monkeypatch.setattr(module, name, public(label, getattr(module, name)))
        for multistart in (1, 3):
            sx.fit(dataset_200, sx.FitConfig(K=2, seed=5, multistart=multistart))
        sx.cross_validate(dataset_200, sx.FitConfig(K=2), candidates=(2, 3), folds=2)
        assert len(per_call) == 4
        assert {name: set(counts) for name, counts in per_call.items()} == {
            name: {1} for name in per_call}
        assert len(scans) == sum(len(counts) for counts in per_call.values())

    def test_singular_newton_solve_raises_damping(self, dataset_200, monkeypatch, caplog):
        warm = optimizer._cox_warm_start(dataset_200)
        real = np.linalg.solve
        failures = []

        def solve_fails_once(A, b):
            if not failures:
                failures.append(A)
                raise np.linalg.LinAlgError("Singular matrix")
            return real(A, b)

        monkeypatch.setattr(np.linalg, "solve", solve_fails_once)
        with caplog.at_level("DEBUG", logger="sttvcox.optimizer"):
            m = sx.fit(dataset_200, sx.FitConfig(K=2, variant="sttv", seed=5), _warm=warm)
        assert len(failures) == 1
        first = next(r.getMessage() for r in caplog.records
                     if r.getMessage().startswith("newton iter 1:"))
        assert "lambda 1.0e-06," in first
        assert m.converged and m.stop_reason == "gradient"
        assert (np.diff(m.loglik_path) >= 0).all()

    @staticmethod
    def line_search(monkeypatch, keep=True, overflow_first=False):
        """Patch the trial scorer: optionally turn off the plan's keep rule, so
        no weights are kept and every derivative scan forms them afresh, and
        overflow the first trial.

        Returns, for that trial, whether the workspace's plan kept anything
        after it raised.
        """
        if not keep:
            monkeypatch.setattr(likelihood._RiskSets, "keeps", lambda self: False)
        real = optimizer.penalized_loglik
        raised = []

        def trial(cb, ds, ws):
            if not overflow_first or raised:
                return real(cb, ds, ws)
            huge = replace(cb, gamma=np.full_like(cb.gamma, np.finfo(float).max))
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    return real(huge, ds, ws)
            except sx.NumericError:
                raised.append(ws.risk_sets._kept is not None)
                raise

        monkeypatch.setattr(optimizer, "penalized_loglik", trial)
        return raised

    @pytest.mark.bitwise
    def test_failed_first_trial_matches_fit_with_nothing_kept(self, dataset_200,
                                                              monkeypatch, caplog):
        # the first line-search trial overflows, so a later halving is accepted
        cfg = sx.FitConfig(K=2, variant="sttv", seed=5)
        raised = self.line_search(monkeypatch, overflow_first=True)
        with caplog.at_level("DEBUG", logger="sttvcox.optimizer"):
            got = sx.fit(dataset_200, cfg)
        assert raised == [False]
        first = next(r.getMessage() for r in caplog.records
                     if r.getMessage().startswith("newton iter 1:"))
        assert "halvings 0," not in first
        raised = self.line_search(monkeypatch, keep=False, overflow_first=True)
        want = sx.fit(dataset_200, cfg)
        assert raised == [False]
        for name in ("gamma_hat", "loglik_path", "sandwich", "score_cov"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    @pytest.mark.bitwise
    @pytest.mark.parametrize("variant", ["sttv", "regtv"])
    def test_multistart_fit_matches_fit_with_nothing_kept(self, dataset_200, monkeypatch,
                                                          variant):
        cfg = sx.FitConfig(K=2, variant=variant, seed=5, multistart=3)
        real = likelihood._risk_weights
        formed = []
        monkeypatch.setattr(likelihood, "_risk_weights",
                            lambda *a: formed.append(1) or real(*a))
        got = sx.fit(dataset_200, cfg)
        kept_formed = len(formed)
        self.line_search(monkeypatch, keep=False)
        want = sx.fit(dataset_200, cfg)
        # without kept weights each accepted trial's derivative scan forms them again
        assert kept_formed < len(formed) - kept_formed
        for name in ("gamma_hat", "loglik_path", "sandwich"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    @pytest.mark.parametrize("variant", ["sttv", "regtv"])
    def test_trial_blocks_keep_the_start_blocks_thresholds_and_eta(self, dataset_200,
                                                                  monkeypatch, variant):
        # trials skip the constructor's checks of thresholds and eta, so
        # they must carry the start block's, which passed them
        trials, starts = [], []
        real_loglik, real_newton = optimizer.penalized_loglik, optimizer._newton

        def loglik(cb, ds, ws):
            trials.append(cb)
            return real_loglik(cb, ds, ws)

        def newton(cb0, *args):
            starts.append(cb0)
            return real_newton(cb0, *args)

        monkeypatch.setattr(optimizer, "penalized_loglik", loglik)
        monkeypatch.setattr(optimizer, "_newton", newton)
        m = sx.fit(dataset_200, sx.FitConfig(K=2, variant=variant, seed=5))
        (cb0,) = starts
        assert m.n_iter > 0 and len(trials) >= m.n_iter
        assert (cb0.thresholds is None) == (variant == "regtv")
        for cb in trials:
            assert type(cb) is sx.CoefficientBlock
            assert cb.thresholds is cb0.thresholds and cb.eta == cb0.eta
            assert cb.gamma.shape == cb0.gamma.shape and cb.gamma.dtype == float
            assert np.isfinite(cb.gamma).all()
        assert trials[-1].gamma is m.gamma_hat

    @pytest.mark.parametrize("thresholds", [None, np.array([0.1, 0.2])])
    def test_non_finite_trial_raises_the_constructors_error(self, monkeypatch, thresholds):
        # a NaN Newton direction makes every trial gamma NaN
        p, q = 2, 3
        cb0 = sx.CoefficientBlock(gamma=np.ones((p, q)), thresholds=thresholds, eta=1e-3)
        monkeypatch.setattr(optimizer, "value_and_derivatives",
                            lambda cb, ds, ws: (0.0, np.full(p * q, np.nan), -np.eye(p * q)))
        with pytest.raises(sx.ValidationError) as built:
            replace(cb0, gamma=np.full((p, q), np.nan))
        with pytest.raises(sx.ValidationError) as raised:
            optimizer._newton(cb0, None, None, sx.FitConfig(K=1))
        assert str(raised.value) == str(built.value) == "gamma entries must be finite"

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
            # a bool compares equal to 1, but is not a number
            {"K": True}, {"eta": True}, {"multistart": True}, {"alpha_override": (True,)},
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

    def test_basis_evaluated_once(self, fitted_sttv_200, monkeypatch):
        calls = []

        def counted(basis, grid):
            calls.append(len(grid))
            return splines.eval_basis_grid(basis, grid)

        for module in (optimizer, inference):
            monkeypatch.setattr(module, "eval_basis_grid", counted)
        sx.estimate_curves(fitted_sttv_200, np.linspace(0, 3, 30))
        assert calls == [30]

    @pytest.mark.parametrize("variant", ["sttv", "regtv"])
    def test_equals_curve_set_from_public_pieces(self, dataset_200, variant):
        m = sx.fit(dataset_200, sx.FitConfig(K=3, variant=variant, seed=11))
        grid = np.linspace(0, dataset_200.tau, 57)
        curves = sx.estimate_curves(m, grid, level=0.9)
        xi = 1.0 - 0.9
        theta = m.gamma_hat @ sx.eval_basis_grid(m.basis, grid).T
        sig = np.sqrt([sx.curve_variance(m, j, grid) for j in range(m.p)])
        if variant == "sttv":
            beta = sx.soft_threshold(theta, m.alphas[:, None])
            lower, upper, fallback = sx.sparse_ci(theta, m.alphas[:, None], sig, xi)
            zero = beta == 0.0
        else:
            beta = theta
            lower, upper = sx.wald_ci(theta, sig, xi)
            fallback = zero = np.zeros(theta.shape, dtype=bool)
        want = {"grid": grid, "theta_hat": theta, "beta_hat": beta, "sigma_hat": sig,
                "ci_lower": lower, "ci_upper": upper, "zero_flags": zero,
                "fallback": fallback}
        for field, value in want.items():
            got = getattr(curves, field)
            assert (got.dtype, got.shape) == (value.dtype, value.shape), field
            assert got.tobytes() == value.tobytes(), field
        assert (curves.level, curves.covariate_names) == (0.9, m.covariate_names)

    def test_sigma_positive(self, fitted_sttv_200):
        curves = sx.estimate_curves(fitted_sttv_200, np.linspace(0.1, 2.9, 30))
        assert np.all(curves.sigma_hat > 0)
