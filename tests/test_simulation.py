"""Data generation for the benchmark scenarios and metric scoring."""

from dataclasses import replace

import numpy as np
import pytest

import sttvcox as sx
from oracles import invert_cumhaz_full_grid_ref
from sttvcox import optimizer as opt
from sttvcox import simulation as sim


def step_two(t):
    return 2.0 * (np.asarray(t, dtype=float) < 1.5)


def make_curves(grid, beta, zero_flags, ci_lower, ci_upper):
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    return sx.CurveEstimate(
        grid=np.asarray(grid, dtype=float),
        theta_hat=beta.copy(),
        beta_hat=beta,
        sigma_hat=np.ones_like(beta),
        ci_lower=np.atleast_2d(np.asarray(ci_lower, dtype=float)),
        ci_upper=np.atleast_2d(np.asarray(ci_upper, dtype=float)),
        zero_flags=np.atleast_2d(np.asarray(zero_flags, dtype=bool)),
        level=0.95,
        fallback=np.zeros(beta.shape, dtype=bool),
    )


class TestTrueBeta:
    def test_pinned_values(self):
        assert sx.true_beta(1, 0.0) == 3.0
        assert sx.true_beta(1, 2.0) == 0.0
        assert sx.true_beta(3, 1.0) == -1.0
        assert sx.true_beta(2, 0.5) == 0.0
        assert sx.true_beta(2, 2.0) == pytest.approx(2.0 * np.log(2.01), rel=1e-12)

    def test_support_boundaries(self):
        # each cutoff is continuous, so the indicator side is invisible at
        # the boundary itself but decisive just past it
        assert sx.true_beta(1, np.sqrt(3.0)) == pytest.approx(0.0, abs=1e-12)
        assert sx.true_beta(1, 1.8) == 0.0
        assert sx.true_beta(2, 1.0) == pytest.approx(2.0 * np.log(1.01), rel=1e-12)
        assert sx.true_beta(2, 0.999) == 0.0
        assert sx.true_beta(3, 2.0) == pytest.approx(0.0, abs=1e-12)
        assert sx.true_beta(3, 2.1) == 0.0

    def test_vectorized_matches_scalar(self):
        t = np.linspace(0.0, 3.0, 31)
        for j in (1, 2, 3):
            vec = np.asarray(sx.true_beta(j, t), dtype=float)
            scal = np.array([sx.true_beta(j, float(ti)) for ti in t])
            np.testing.assert_allclose(vec, scal, rtol=0, atol=0)

    def test_bad_index(self):
        with pytest.raises(sx.ValidationError):
            sx.true_beta(0, 1.0)
        with pytest.raises(sx.ValidationError):
            sx.true_beta(4, 1.0)


class TestDrawCovariates:
    def test_ar1_lag_two(self):
        Z = sx.draw_covariates(100000, "ar1", seed=3)
        assert Z.shape == (100000, 3)
        assert np.cov(Z.T)[0, 2] == pytest.approx(0.25, abs=0.02)

    def test_ind_off_diagonal(self):
        Z = sx.draw_covariates(100000, "ind", seed=4)
        c = np.cov(Z.T)
        assert abs(c[0, 1]) < 0.02
        assert abs(c[0, 2]) < 0.02
        assert abs(c[1, 2]) < 0.02

    def test_cs_adjacent(self):
        Z = sx.draw_covariates(100000, "cs", seed=5)
        assert np.cov(Z.T)[0, 1] == pytest.approx(0.5, abs=0.02)

    def test_unit_variance_zero_mean(self):
        Z = sx.draw_covariates(100000, "cs", seed=6)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=0.02)
        np.testing.assert_allclose(Z.var(axis=0), 1.0, atol=0.02)

    def test_seed_determinism(self):
        a = sx.draw_covariates(50, "ar1", seed=9)
        b = sx.draw_covariates(50, "ar1", seed=9)
        np.testing.assert_array_equal(a, b)

    def test_bad_structure(self):
        with pytest.raises(sx.ValidationError):
            sx.draw_covariates(10, "toeplitz", seed=0)


class TestDrawEventTime:
    def test_exponential_closed_form(self):
        sc = sx.Scenario(n=10, covariance="ind", seed=0, baseline_hazard=0.5)
        u = 1.0 - np.exp(-1.0)
        t = sx.draw_event_time(np.zeros(3), sc, u)
        assert t == pytest.approx(2.0, abs=1e-6)

    def test_u_outside_open_interval(self):
        sc = sx.Scenario(n=10, covariance="ind", seed=0)
        for u in (0.0, 1.0, -0.1, 1.2):
            with pytest.raises(sx.ValidationError):
                sx.draw_event_time(np.zeros(3), sc, u)

    def test_monotone_in_u(self):
        sc = sx.Scenario(n=10, covariance="ind", seed=0)
        z = np.array([0.3, -0.8, 0.5])
        us = np.linspace(0.05, 0.95, 19)
        ts = [sx.draw_event_time(z, sc, float(u)) for u in us]
        assert np.all(np.diff(ts) > 0)

    def test_exponential_survival_monte_carlo(self):
        # 20000 draws keep this under ten seconds; the largest deviation at
        # this pinned seed is 0.0050, half the allowed band
        lam = 0.5
        sc = sx.Scenario(n=10, covariance="ind", seed=0, baseline_hazard=lam)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(314)))
        us = rng.uniform(size=20000)
        z = np.zeros(3)
        T = np.array([sx.draw_event_time(z, sc, float(u)) for u in us])
        for t in (0.5, 1.0, 2.0, 4.0):
            emp = (T > t).mean()
            assert emp == pytest.approx(np.exp(-lam * t), abs=0.01)

    def test_times_past_the_cap_are_returned(self):
        # draw_event_time integrates the whole grid whatever the censoring
        # cap; at z = 0 the hazard is 1.7, so these times are 4.06 and 5.42
        z = np.zeros(3)
        for admin_censor in (0.5, 3.0):
            sc = sx.Scenario(n=10, covariance="ind", seed=0, admin_censor=admin_censor)
            for u in (0.999, 0.9999):
                t = sx.draw_event_time(z, sc, u)
                want = invert_cumhaz_full_grid_ref(
                    z.reshape(1, -1), np.array([-np.log1p(-u)]), sc)[0]
                assert t == want
                assert admin_censor < t < 20.0


class TestGenerate:
    def test_seed_determinism(self):
        sc = sx.Scenario(n=120, covariance="ar1", seed=21)
        a = sx.generate(sc)
        b = sx.generate(sc)
        np.testing.assert_array_equal(a.time, b.time)
        np.testing.assert_array_equal(a.event, b.event)
        np.testing.assert_array_equal(a.covariates, b.covariates)

    def test_administrative_horizon(self):
        ds = sx.generate(sx.Scenario(n=400, covariance="ind", seed=8))
        assert np.all(ds.time > 0)
        assert np.all(ds.time <= 3.0)
        assert np.all(ds.time[~ds.event] <= 3.0)
        assert ds.tau == 3.0

    def test_censoring_rate_near_target(self):
        ds = sx.generate(sx.Scenario(n=5000, covariance="ind", seed=123))
        rate = 1.0 - ds.event.mean()
        assert rate == pytest.approx(0.12, abs=0.03)

    def test_custom_single_coefficient(self):
        sc = sx.Scenario(n=50, covariance="ind", seed=2,
                         beta_functions=(step_two,))
        ds = sx.generate(sc)
        assert ds.covariates.shape == (50, 1)

    def test_scenario_validation(self):
        base = sx.Scenario(n=10)
        bad = [
            {"n": 0}, {"n": float("nan")}, {"n": 10.5}, {"covariance": "toeplitz"},
            {"seed": -1}, {"baseline_hazard": 0.0},
            {"censor_upper": float("nan")}, {"admin_censor": float("inf")},
            {"beta_functions": ()}, {"beta_functions": (1.0,)},
        ]
        for change in bad:
            with pytest.raises(sx.ValidationError):
                sx.Scenario(**{"n": 10, **change})
            with pytest.raises(sx.ValidationError):
                replace(base, **change)

    # generate integrates the hazard only up to the censoring cap
    @pytest.mark.parametrize("covariance", sim.COVARIANCES)
    @pytest.mark.parametrize("admin_censor", [0.5, 2.5, 3.0, 25.0])
    @pytest.mark.parametrize("n", [129, 300])      # partial last 128-subject chunk
    def test_bytes_equal_full_grid_inversion(self, covariance, admin_censor, n,
                                             monkeypatch):
        sc = sx.Scenario(n=n, covariance=covariance, seed=n + 7,
                         admin_censor=admin_censor)
        got = sx.generate(sc)
        monkeypatch.setattr(sim, "_invert_cumhaz",
                            lambda Z, targets, sc, cap=None:
                            invert_cumhaz_full_grid_ref(Z, targets, sc))
        want = sx.generate(sc)
        for name in ("time", "event", "covariates", "sort_index"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert got.tau == want.tau == admin_censor


class TestScore:
    def test_exact_truth_scores_perfectly(self):
        sc = sx.Scenario(n=10, covariance="ind", seed=0)
        grid = sx.metric_grid(sc)
        truth = np.vstack([np.asarray(f(grid), dtype=float)
                           for f in sc.beta_functions])
        curves = make_curves(grid, truth, truth == 0.0,
                             truth - 0.005, truth + 0.005)
        rep = sx.score(curves, sc)
        np.testing.assert_array_equal(rep.ise, 0.0)
        assert rep.aise == 0.0
        np.testing.assert_array_equal(rep.etpr, 1.0)
        np.testing.assert_array_equal(rep.etnr, 1.0)
        np.testing.assert_array_equal(rep.itpr, 1.0)
        np.testing.assert_array_equal(rep.itnr, 1.0)
        np.testing.assert_array_equal(rep.coverage, 1.0)

    def test_all_zero_estimate(self):
        sc = sx.Scenario(n=10, covariance="ind", seed=0)
        grid = sx.metric_grid(sc)
        zeros = np.zeros((3, grid.size))
        curves = make_curves(grid, zeros, np.ones_like(zeros, dtype=bool),
                             zeros - 0.1, zeros + 0.1)
        rep = sx.score(curves, sc)
        np.testing.assert_array_equal(rep.etnr, 1.0)
        np.testing.assert_array_equal(rep.etpr, 0.0)
        np.testing.assert_array_equal(rep.itnr, 1.0)
        np.testing.assert_array_equal(rep.itpr, 0.0)

    def test_block_toy_hand_counts(self):
        # truth nonzero on grid indices 0..49 and zero on 50..99; estimated
        # zero flags start at 45, intervals contain zero on 40..89, so the
        # hand counts are etpr 45/50, etnr 50/50, itpr 40/50, itnr 40/50
        sc = sx.Scenario(n=10, covariance="ind", seed=0,
                         beta_functions=(step_two,))
        grid = sx.metric_grid(sc)
        beta = step_two(grid)
        flags = np.arange(100) >= 45
        contains = (np.arange(100) >= 40) & (np.arange(100) < 90)
        lo = np.where(contains, -0.1, 0.2)
        hi = np.full(100, 0.5)
        rep = sx.score(make_curves(grid, beta, flags, lo, hi), sc)
        assert rep.etpr[0] == 45 / 50
        assert rep.etnr[0] == 1.0
        assert rep.itpr[0] == 40 / 50
        assert rep.itnr[0] == 40 / 50
        # covered iff the interval holds the truth: only zero-truth points
        # whose interval contains zero, indices 50..89
        assert rep.coverage.mean() == 40 / 100

    def test_grid_mismatch_rejected(self):
        sc = sx.Scenario(n=10, covariance="ind", seed=0,
                         beta_functions=(step_two,))
        bad = np.linspace(0.0, 3.0, 50)
        curves = make_curves(bad, step_two(bad), step_two(bad) == 0.0,
                             step_two(bad) - 0.1, step_two(bad) + 0.1)
        with pytest.raises(sx.ValidationError):
            sx.score(curves, sc)

    def test_coefficient_count_mismatch_rejected(self):
        sc = sx.Scenario(n=10, covariance="ind", seed=0)
        grid = sx.metric_grid(sc)
        two = np.zeros((2, grid.size))
        curves = make_curves(grid, two, np.ones_like(two, dtype=bool),
                             two - 0.1, two + 0.1)
        with pytest.raises(sx.ValidationError):
            sx.score(curves, sc)

    def test_fitted_model_scores_in_range(self, fitted_sttv_200, scenario_200):
        curves = sx.estimate_curves(fitted_sttv_200, sx.metric_grid(scenario_200))
        rep = sx.score(curves, scenario_200)
        np.testing.assert_array_equal(rep.grid, sx.metric_grid(scenario_200))
        assert rep.aise == pytest.approx(rep.ise.mean(), rel=1e-15)
        for name in ("etpr", "etnr", "itpr", "itnr"):
            vals = getattr(rep, name)
            ok = np.isnan(vals) | ((vals >= 0.0) & (vals <= 1.0))
            assert ok.all()
        assert rep.coverage.shape == (3, 100)


class TestReplicate:
    def test_reports_and_recomputable_aggregates(self):
        sc = sx.Scenario(n=60, covariance="ind", seed=17)
        res = sx.replicate(sc, [sx.FitConfig(K=2, variant="sttv", seed=17)],
                           reps=3)
        assert sorted(res.reports["sttv"]) == [0, 1, 2]
        aises = [res.reports["sttv"][r].aise for r in range(3)]
        mean, sd = res.aggregates["sttv"]["aise"]
        assert mean == pytest.approx(np.mean(aises), rel=1e-13)
        assert sd == pytest.approx(np.std(aises, ddof=1), rel=1e-13)

    def test_single_rep_sd_is_zero(self):
        sc = sx.Scenario(n=60, covariance="ind", seed=17)
        res = sx.replicate(sc, [sx.FitConfig(K=2, variant="sttv", seed=17)],
                           reps=1)
        mean, sd = res.aggregates["sttv"]["ise"]
        assert np.all(sd == 0.0)
        np.testing.assert_array_equal(mean, res.reports["sttv"][0].ise)

    def test_constant_rows_aggregate_to_constant(self):
        x = np.array([0.25, 1.5, 3.0])
        mean, sd = sim._aggregate([x, x, x])
        np.testing.assert_array_equal(mean, x)
        np.testing.assert_array_equal(sd, 0.0)

    def test_failed_reps_recorded_and_excluded(self):
        # q = 12 basis columns per coefficient cannot be identified from
        # about 26 events, so every rep fails and is excluded
        sc = sx.Scenario(n=30, covariance="ind", seed=5)
        res = sx.replicate(sc, [sx.FitConfig(K=9, variant="sttv", seed=5)],
                           reps=2)
        assert len(res.failures) == 2
        for rep, variant, message in res.failures:
            assert rep in (0, 1)
            assert variant == "sttv"
            assert isinstance(message, str) and message
        assert res.reports["sttv"] == {}
        assert res.aggregates["sttv"] == {}
        assert res.coverage_mean["sttv"] is None

    def test_jobs_do_not_change_results(self):
        sc = sx.Scenario(n=60, covariance="ind", seed=17)
        cfgs = [sx.FitConfig(K=2, variant="sttv", seed=17)]
        serial = sx.replicate(sc, cfgs, reps=2, jobs=1)
        parallel = sx.replicate(sc, cfgs, reps=2, jobs=2)
        for r in range(2):
            assert serial.reports["sttv"][r].aise == \
                parallel.reports["sttv"][r].aise

    def test_rep_seeds_distinct(self):
        seeds = [sx.rep_seed(0, r) for r in range(20)]
        assert len(set(seeds)) == 20
        assert sx.rep_seed(0, 3) == sx.rep_seed(0, 3)


def assert_reports_equal(a, b):
    for name in ("ise", "aise", "etpr", "etnr", "itpr", "itnr", "coverage", "grid"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class TestReplicateWithCv:
    """replicate(..., candidates=...) chooses K by CV in every replication."""

    SCENARIO = sx.Scenario(n=60, covariance="ind", seed=17)
    CONFIGS = [sx.FitConfig(K=3, variant=v, seed=17) for v in ("sttv", "regtv")]

    @pytest.fixture(scope="class")
    def serial(self):
        return sx.replicate(self.SCENARIO, self.CONFIGS, reps=2,
                            candidates=(2, 3), folds=2)

    def test_chosen_K_and_reports_match_direct_calls(self, serial):
        assert serial.failures == ()
        for rep in range(2):
            sc_r = replace(self.SCENARIO, seed=sx.rep_seed(17, rep))
            ds = sx.generate(sc_r)
            for cfg in self.CONFIGS:
                cv = sx.cross_validate(ds, cfg, (2, 3), 2, seed=sc_r.seed)
                assert serial.chosen_K[cfg.variant][rep] == cv.chosen_K
                model = sx.fit(ds, replace(cfg, K=cv.chosen_K))
                curves = sx.estimate_curves(model, sx.metric_grid(sc_r))
                assert_reports_equal(serial.reports[cfg.variant][rep],
                                     sx.score(curves, sc_r))

    def test_jobs_do_not_change_results(self, serial):
        parallel = sx.replicate(self.SCENARIO, self.CONFIGS, reps=2, jobs=2,
                                candidates=(2, 3), folds=2)
        assert parallel.chosen_K == serial.chosen_K
        assert parallel.failures == serial.failures
        for variant in serial.variants:
            for rep in range(2):
                assert_reports_equal(parallel.reports[variant][rep],
                                     serial.reports[variant][rep])

    def test_without_candidates_chosen_K_is_the_config_K(self):
        res = sx.replicate(self.SCENARIO, [sx.FitConfig(K=2, variant="sttv")], reps=2)
        assert res.chosen_K == {"sttv": {0: 2, 1: 2}}

    @pytest.mark.parametrize("setting", [
        {"candidates": (2, 3), "folds": 1},
        {"candidates": (2, 3), "folds": 61},
        {"candidates": (0, 3), "folds": 2},
        {"candidates": (), "folds": 2},
        {"candidates": (2.5, 3), "folds": 2},
        {"candidates": (2, 3), "folds": 2.5},
        {"level": 1.5},
    ], ids=["one_fold", "folds_above_n", "zero_candidate", "no_candidates",
            "fractional_candidate", "fractional_folds", "level"])
    def test_bad_cv_setting_fails_before_any_replication(self, setting, monkeypatch):
        def no_generate(sc):
            raise AssertionError("a replication started")

        monkeypatch.setattr(sim, "generate", no_generate)
        with pytest.raises(sx.ValidationError):
            sx.replicate(self.SCENARIO, self.CONFIGS, reps=2, **setting)

    def test_threshold_count_checked_before_any_replication(self, monkeypatch):
        def no_generate(sc):
            raise AssertionError("a replication started")

        monkeypatch.setattr(sim, "generate", no_generate)
        cfg = sx.FitConfig(K=2, variant="sttv", alpha_override=(0.1, 0.2))
        with pytest.raises(sx.ValidationError, match="2 thresholds for 3 covariates"):
            sx.replicate(self.SCENARIO, [cfg], reps=2)

    def test_jobs_below_one_rejected(self):
        with pytest.raises(sx.ValidationError, match="jobs must be >= 1"):
            sx.replicate(self.SCENARIO, self.CONFIGS, reps=1, jobs=0)


def separating_dataset():
    """Event order follows the first covariate, so the Cox fit diverges."""
    n = 40
    time = np.linspace(0.05, 2.9, n)
    event = np.ones(n, dtype=bool)
    event[::5] = False
    rng = np.random.default_rng(3)
    Z = np.column_stack([-time, rng.standard_normal((n, 2))])
    return sx.make_dataset(time, event, Z, tau=3.0, covariate_names=("z1", "z2", "z3"))


class TestOneWarmStartPerDataset:
    """Both variants of a replication share the Cox warm start of its data."""

    SCENARIO = sx.Scenario(n=60, covariance="ind", seed=17)
    CONFIGS = [sx.FitConfig(K=2, variant=v, seed=17) for v in ("sttv", "regtv")]

    @pytest.mark.parametrize("setting", [{}, {"candidates": (2, 3), "folds": 2}],
                             ids=["fixed_K", "cv"])
    def test_one_cox_fit_per_replication_dataset(self, setting, monkeypatch):
        sizes = []
        real = opt.fit_coxph
        monkeypatch.setattr(opt, "fit_coxph", lambda ds: sizes.append(ds.n) or real(ds))
        res = sx.replicate(self.SCENARIO, self.CONFIGS, reps=2, **setting)
        assert res.failures == ()
        # the fold fits of cross-validation see 30 rows; the full data 60
        assert sizes.count(self.SCENARIO.n) == 2
        if not setting:
            assert len(sizes) == 2

    def test_reports_equal_separate_fits(self):
        res = sx.replicate(self.SCENARIO, self.CONFIGS, reps=2, keep_curves=True)
        for rep in range(2):
            sc_r = replace(self.SCENARIO, seed=sx.rep_seed(17, rep))
            ds = sx.generate(sc_r)
            for cfg in self.CONFIGS:
                curves = sx.estimate_curves(sx.fit(ds, cfg), sx.metric_grid(sc_r))
                assert_reports_equal(res.reports[cfg.variant][rep], sx.score(curves, sc_r))
                kept = res.curves[cfg.variant][rep]
                for name in ("theta_hat", "beta_hat", "sigma_hat", "ci_lower", "ci_upper"):
                    assert getattr(kept, name).tobytes() == getattr(curves, name).tobytes()

    def test_separation_fails_sttv_and_regtv_falls_back(self, monkeypatch, caplog):
        ds = separating_dataset()
        sc = sx.Scenario(n=ds.n, covariance="ind", seed=3)
        sttv, regtv = self.CONFIGS
        with pytest.raises(sx.SeparationError) as separated:
            sx.fit(ds, sttv)
        message = str(separated.value)
        assert message.startswith("monotone likelihood")
        monkeypatch.setattr(sim, "generate", lambda sc: ds)
        caplog.clear()
        with caplog.at_level("WARNING", logger="sttvcox.optimizer"):
            res = sx.replicate(sc, self.CONFIGS, reps=1)
        warnings = [r.getMessage() for r in caplog.records if r.name == "sttvcox.optimizer"]
        assert res.failures == ((0, "sttv", message),)
        assert warnings == [f"warm start failed ({message}); starting from zero coefficients"]
        model = sx.fit(ds, regtv)
        assert model.warm_start is None
        curves = sx.estimate_curves(model, sx.metric_grid(sc))
        assert_reports_equal(res.reports["regtv"][0], sx.score(curves, sc))
