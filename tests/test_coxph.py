"""Constant-coefficient Cox fit: warm starts and the comparison model."""

import numpy as np
import pytest

import sttvcox as sx
from sttvcox import coxph, likelihood
from conftest import dependent_pairs, make_random_dataset
from oracles import coxph_loglik_ref, golden_section_max, plain_spline_loglik_ref


class TestFitCoxph:
    def test_two_point_separation(self):
        ds = sx.make_dataset([1.0, 2.0], [True, False], [[1.0], [0.0]])
        with pytest.raises(sx.SeparationError):
            sx.fit_coxph(ds)

    def test_four_point_matches_golden_section(self):
        ds = sx.make_dataset(
            [1.0, 2.0, 3.0, 4.0],
            [True, True, False, False],
            [[1.0], [0.0], [1.0], [0.0]],
        )
        fit = sx.fit_coxph(ds)
        want = golden_section_max(
            lambda b: coxph_loglik_ref([b], ds), -10.0, 10.0
        )
        assert fit.converged
        assert fit.beta[0] == pytest.approx(want, abs=1e-6)

    def test_zero_column_flagged(self):
        ds = sx.make_dataset(
            [1.0, 2.0, 3.0, 4.0],
            [True, True, True, False],
            [[0.0, 1.0], [0.0, 0.3], [0.0, -0.5], [0.0, 0.2]],
        )
        fit = sx.fit_coxph(ds)
        assert fit.beta[0] == 0.0
        assert fit.zero_information[0]
        assert not fit.zero_information[1]

    def test_loglik_matches_reference(self):
        ds = make_random_dataset(31, n=30, p=2)
        fit = sx.fit_coxph(ds)
        assert fit.loglik == pytest.approx(
            coxph_loglik_ref(fit.beta, ds), rel=1e-10
        )

    def test_gradient_small_at_optimum(self):
        ds = make_random_dataset(55, n=40, p=3)
        fit = sx.fit_coxph(ds)
        assert fit.converged
        # quadratic surrogate of optimality: moving any coordinate by +-1e-5
        # cannot improve the reference likelihood measurably
        base = coxph_loglik_ref(fit.beta, ds)
        for k in range(3):
            for sign in (-1.0, 1.0):
                beta = fit.beta.copy()
                beta[k] += sign * 1e-5
                assert coxph_loglik_ref(beta, ds) <= base + 1e-9

    def test_agrees_with_plain_spline_at_constant_gamma(self):
        # a constant spline curve at beta-hat gives the same objective as
        # the constant model (partition of unity), penalty off
        ds = make_random_dataset(71, n=25, p=2)
        fit = sx.fit_coxph(ds)
        basis = sx.make_basis(2, 2, ds.tau)
        gamma = np.repeat(fit.beta[:, None], basis.q, axis=1)
        B = sx.eval_basis_grid(basis, ds.time)
        value = plain_spline_loglik_ref(gamma, ds, 0.0, B)
        assert value == pytest.approx(fit.loglik, rel=1e-10)


class TestSingularInformation:
    """A singular information matrix at the optimum raises NumericError naming
    the dependent columns; the spline fits and cross-validation apply the
    warm-start rule to it."""

    def test_fit_coxph_names_the_dependent_columns(self):
        with pytest.raises(sx.NumericError,
                           match="columns z1, z2 are constant or linearly dependent"):
            sx.fit_coxph(dependent_pairs())

    def test_column_outside_every_risk_set_is_named(self):
        # z2 varies only among rows censored before the first event, so it
        # enters no risk set and carries no information
        ds = sx.make_dataset([0.5, 0.6, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                             [False, False, True, True, False, True, True, False],
                             [[0.3, 1.0], [-0.2, -1.0], [1.0, 0.0], [-1.0, 0.0],
                              [0.5, 0.0], [0.2, 0.0], [-0.7, 0.0], [0.1, 0.0]])
        with pytest.raises(sx.NumericError, match="columns z2 are constant or linearly"):
            sx.fit_coxph(ds)

    def test_only_the_dependent_columns_are_named(self):
        ds = sx.make_dataset([1.0, 2.0, 3.0], [True] * 3, np.zeros((3, 4)),
                             covariate_names=["a", "b", "c", "d"])
        active = np.array([True, True, False, True])
        # a and d are dependent, b stands alone, c is inactive
        H = -np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [2.0, 0.0, 4.0]])
        assert coxph._dependent_columns(ds, active, H) == ["a", "d"]

    def test_sttv_fit_raises(self):
        with pytest.raises(sx.NumericError, match="z1, z2"):
            sx.fit(dependent_pairs(), sx.FitConfig(K=2))

    def test_regtv_fit_starts_from_zeros(self, caplog):
        model = sx.fit(dependent_pairs(), sx.FitConfig(K=2, variant="regtv"))
        assert model.warm_start is None
        assert np.isfinite(model.gamma_hat).all() and np.isfinite(model.sandwich).all()
        assert "warm start failed (singular information matrix" in caplog.text

    def test_cross_validate_excludes_the_candidates(self, caplog):
        ds = dependent_pairs()
        with pytest.raises(sx.ConvergenceError, match="every candidate K failed"):
            sx.cross_validate(ds, sx.FitConfig(K=2), candidates=(2, 3), folds=2)
        assert caplog.text.count("failed and is excluded: singular information") == 2
        result = sx.cross_validate(ds, sx.FitConfig(K=2, variant="regtv"),
                                   candidates=(2, 3), folds=2)
        assert result.failed == () and np.isfinite(result.cv_error).all()

    @pytest.mark.parametrize("seed", range(6))
    def test_random_dependent_columns_raise_typed_errors(self, seed):
        # normal z1 on 30 rows with about 70% events: whether the computed
        # information is exactly singular depends on rounding, so each call
        # must return finite numbers or raise a package error (cross-validation
        # raises when every candidate fails, so some cv_error is a number)
        rng = np.random.default_rng(seed)
        z1 = rng.normal(size=30)
        ds = sx.make_dataset(rng.exponential(size=30), rng.random(30) < 0.7,
                             np.column_stack([z1, 2.0 * z1]))
        for call in (lambda: sx.fit_coxph(ds).covariance,
                     lambda: sx.fit(ds, sx.FitConfig(K=2)).gamma_hat,
                     lambda: sx.fit(ds, sx.FitConfig(K=2, variant="regtv")).gamma_hat,
                     lambda: np.nanmin(sx.cross_validate(ds, sx.FitConfig(K=2),
                                                         candidates=(2, 3), folds=3).cv_error)):
            try:
                out = call()
            except sx.SttvError:
                continue
            assert np.isfinite(out).all()


class TestKeptWeights:
    """The accepted trial's weight blocks serve the derivative scan at that step."""

    def test_kept_weights_match_fit_with_nothing_kept(self, dataset_200, monkeypatch):
        ds = dataset_200
        # the fit hands the kernel its one shared predictor row, whose
        # weights _shared_weights forms
        real = likelihood._shared_weights
        formed = []
        monkeypatch.setattr(likelihood, "_shared_weights",
                            lambda *a: formed.append(1) or real(*a))
        fits, counts = [], []
        # None keeps the default; m n is the last budget that keeps the weights,
        # and past it, as at 0, every scan forms its own
        for budget in (None, ds.n_events * ds.n, ds.n_events * ds.n - 1, 0):
            if budget is not None:
                monkeypatch.setattr(likelihood, "_CHUNK_BUDGET", budget)
            formed.clear()
            fits.append(sx.fit_coxph(ds))
            counts.append(len(formed))
        iterations = fits[0].iterations
        assert iterations > 0 and counts[0] > 0
        # every derivative scan but the first reuses its trial's weights
        assert counts[0] == counts[1] == counts[2] - iterations == counts[3] - iterations
        for fit in fits[1:]:
            assert fit.iterations == iterations
            assert fit.beta.tobytes() == fits[0].beta.tobytes()
            assert fit.covariance.tobytes() == fits[0].covariance.tobytes()
            assert fit.loglik.hex() == fits[0].loglik.hex()


class TestInitialGamma:
    def test_rows_are_constant(self):
        fit = sx.CoxFit(
            beta=np.array([2.0, -1.0]),
            covariance=np.eye(2),
            loglik=0.0,
            iterations=1,
            converged=True,
            zero_information=np.array([False, False]),
        )
        g = sx.initial_gamma(fit, 4)
        np.testing.assert_array_equal(g[0], [2, 2, 2, 2])
        np.testing.assert_array_equal(g[1], [-1, -1, -1, -1])

    def test_initial_curves_are_flat(self):
        fit = sx.CoxFit(
            beta=np.array([0.7]),
            covariance=np.eye(1),
            loglik=0.0,
            iterations=1,
            converged=True,
            zero_information=np.array([False]),
        )
        basis = sx.make_basis(3, 3, 2.0)
        g = sx.initial_gamma(fit, basis.q)
        for t in np.linspace(0, 2, 10):
            theta = float(sx.eval_basis_grid(basis, [t])[0] @ g[0])
            assert theta == pytest.approx(0.7, abs=1e-12)

    def test_zero_estimate_gives_zero_row(self):
        fit = sx.CoxFit(
            beta=np.array([0.0]),
            covariance=np.eye(1),
            loglik=0.0,
            iterations=1,
            converged=True,
            zero_information=np.array([False]),
        )
        np.testing.assert_array_equal(sx.initial_gamma(fit, 3), [[0, 0, 0]])
