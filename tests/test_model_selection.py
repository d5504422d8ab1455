"""Cross-validated choice of the spline dimension."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sttvcox as sx
from oracles import risk_set_totals_loop, smooth_threshold_arrays_ref
from sttvcox.model_selection import _heldout_error, _subset


@pytest.fixture(scope="module")
def ds60():
    return sx.generate(sx.Scenario(n=60, covariance="ind", seed=19))


class TestAssignFolds:
    def test_balanced_sizes(self):
        events = np.array([True] * 10)
        folds = sx.assign_folds(10, 5, events, seed=0)
        sizes = np.bincount(folds, minlength=5)
        assert list(sizes) == [2, 2, 2, 2, 2]

    def test_events_stratified(self):
        events = np.array([True] * 10)
        folds = sx.assign_folds(10, 5, events, seed=3)
        for r in range(5):
            assert np.sum(events[folds == r]) == 2

    def test_mixed_case_stays_balanced(self):
        events = np.array([True] * 6 + [False] * 4)
        folds = sx.assign_folds(10, 5, events, seed=1)
        sizes = np.bincount(folds, minlength=5)
        assert list(sizes) == [2, 2, 2, 2, 2]

    def test_folds_le_n(self):
        with pytest.raises(sx.ValidationError):
            sx.assign_folds(3, 5, np.array([True] * 3), seed=0)

    def test_every_fold_has_an_event_when_possible(self):
        events = np.array([True] * 5 + [False] * 15)
        folds = sx.assign_folds(20, 5, events, seed=7)
        for r in range(5):
            assert np.sum(events[folds == r]) >= 1

    @settings(max_examples=200, deadline=None)
    @given(events=st.lists(st.booleans(), min_size=2, max_size=79).filter(any),
           data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_every_fold_gets_an_event_when_events_suffice(self, events, data, seed):
        # the property cross_validate relies on when it uses one draw
        events = np.array(events)
        folds = data.draw(st.integers(1, int(events.sum())))
        assignment = sx.assign_folds(events.size, folds, events, seed)
        assert (np.bincount(assignment[events], minlength=folds) > 0).all()


class TestCrossValidate:
    def test_leave_one_out_small(self):
        ds = sx.generate(sx.Scenario(n=30, covariance="ind", seed=2))
        cfg = sx.FitConfig(K=3, variant="sttv", seed=2)
        cv = sx.cross_validate(ds, cfg, candidates=[3, 5], folds=30, seed=2)
        assert np.all(np.isfinite(cv.cv_error))
        assert cv.chosen_K in (3, 5)

    def test_duplicate_candidates_collapse(self, ds60):
        cfg = sx.FitConfig(K=3, variant="sttv", seed=19)
        cv = sx.cross_validate(ds60, cfg, candidates=[3, 3, 5], folds=4, seed=19)
        assert list(cv.candidates) == [3, 5]

    def test_fold_relabeling_invariance(self, ds60):
        # the mean over folds cannot depend on fold labels; rerunning with
        # the same seed must reproduce identical errors
        cfg = sx.FitConfig(K=3, variant="sttv", seed=19)
        a = sx.cross_validate(ds60, cfg, candidates=[3, 5], folds=5, seed=4)
        b = sx.cross_validate(ds60, cfg, candidates=[3, 5], folds=5, seed=4)
        np.testing.assert_array_equal(a.cv_error, b.cv_error)
        assert a.chosen_K == b.chosen_K

    def test_chosen_minimizes(self, ds60):
        cfg = sx.FitConfig(K=3, variant="sttv", seed=19)
        cv = sx.cross_validate(ds60, cfg, candidates=[3, 5, 9], folds=5, seed=19)
        kept = [
            (k, e) for k, e in zip(cv.candidates, cv.cv_error) if np.isfinite(e)
        ]
        best = min(kept, key=lambda t: t[1])[0]
        assert cv.chosen_K == best

    def test_folds_must_be_at_least_two(self, ds60):
        cfg = sx.FitConfig(K=3, variant="sttv", seed=19)
        with pytest.raises(sx.ValidationError):
            sx.cross_validate(ds60, cfg, candidates=[3], folds=1, seed=0)

    def test_zero_events_rejected_before_any_fold(self, ds60, monkeypatch):
        import sttvcox.model_selection as ms

        def no_folds(*args, **kwargs):
            raise AssertionError("folds were built")

        monkeypatch.setattr(ms, "assign_folds", no_folds)
        censored = sx.make_dataset(ds60.time, np.zeros(ds60.n, dtype=bool),
                                   ds60.covariates, tau=ds60.tau)
        cfg = sx.FitConfig(K=3, variant="sttv", seed=19)
        with pytest.raises(sx.ValidationError, match="zero events"):
            sx.cross_validate(censored, cfg, candidates=[3, 5], folds=4, seed=0)

    def test_default_candidates(self):
        assert tuple(sx.DEFAULT_CANDIDATES) == (3, 5, 9, 13, 17, 21)

    def test_detects_gross_underfit(self):
        # a single cubic segment cannot track two full oscillation cycles,
        # so the held-out error gap dwarfs fold noise and CV must pick the
        # richer basis on every seed
        def osc(t):
            return 2.0 * np.sin(2.0 * np.pi * t / 1.5)

        for seed in (0, 1):
            sc = sx.Scenario(n=600, covariance="ind", seed=seed,
                             beta_functions=(osc,), baseline_hazard=0.5)
            ds = sx.generate(sc)
            cfg = sx.FitConfig(K=3, variant="sttv", seed=seed)
            cv = sx.cross_validate(ds, cfg, candidates=[1, 5], folds=5,
                                   seed=seed)
            assert cv.chosen_K == 5
            assert cv.cv_error[0] > cv.cv_error[1]


class TestFoldSharing:
    """Each fold's datasets and warm start serve every candidate K."""

    def test_one_warm_start_per_fold(self, ds60, monkeypatch):
        import sttvcox.optimizer as opt

        calls = []
        real = opt.fit_coxph
        monkeypatch.setattr(opt, "fit_coxph", lambda ds: calls.append(ds.n) or real(ds))
        cfg = sx.FitConfig(K=3, variant="sttv", seed=19)
        sx.cross_validate(ds60, cfg, candidates=[3, 5], folds=4, seed=19)
        assert len(calls) == 4

    def test_errors_match_separate_fits(self, ds60):
        cfg = sx.FitConfig(K=3, variant="sttv", seed=19)
        cv = sx.cross_validate(ds60, cfg, candidates=[2, 3], folds=3, seed=5)
        np.testing.assert_array_equal(cv.fold_assignments,
                                      sx.assign_folds(ds60.n, 3, ds60.event, 5))
        for ci, K in enumerate(cv.candidates):
            for r in range(3):
                train = _subset(ds60, np.flatnonzero(cv.fold_assignments != r))
                held = _subset(ds60, np.flatnonzero(cv.fold_assignments == r))
                model = sx.fit(train, sx.FitConfig(K=K, variant="sttv", seed=19))
                assert cv.per_fold[ci, r] == _heldout_error(model, held)

    def test_folds_scored_by_the_public_value_scan(self, ds60, monkeypatch):
        import sttvcox.model_selection as ms

        calls = []
        real = ms.penalized_loglik

        def counted(cb, held, ws):
            value = real(cb, held, ws)
            calls.append((held.n_events, ws.rho, cb.eta, value))
            return value

        monkeypatch.setattr(ms, "penalized_loglik", counted)
        cfg = sx.FitConfig(K=3, variant="sttv", seed=19)
        cv = sx.cross_validate(ds60, cfg, candidates=[2, 3], folds=3, seed=5)
        usable = [ci for ci, K in enumerate(cv.candidates) if K not in cv.failed]
        with_events = [r for r in range(3) if ds60.event[cv.fold_assignments == r].any()]
        assert len(usable) == 2 and len(with_events) == 3
        assert len(calls) == len(with_events) * len(usable)
        # folds run outside the candidates, so the calls go fold by fold
        for (m, rho, eta, value), (r, ci) in zip(calls, [(r, ci) for r in with_events
                                                        for ci in usable]):
            assert m > 0 and rho == 0.0 and eta == 0.0
            assert cv.per_fold[ci, r] == -value

    def test_failing_candidate_is_excluded(self, ds60, monkeypatch):
        import sttvcox.model_selection as ms

        real = ms.fit
        seen = []

        def flaky(train, cfg, **kwargs):
            seen.append(cfg.K)
            if cfg.K == 5 and seen.count(5) == 2:
                raise sx.ConvergenceError("injected")
            return real(train, cfg, **kwargs)

        monkeypatch.setattr(ms, "fit", flaky)
        cfg = sx.FitConfig(K=3, variant="sttv", seed=19)
        cv = sx.cross_validate(ds60, cfg, candidates=[3, 5], folds=4, seed=19)
        assert cv.failed == (5,)
        assert np.isnan(cv.per_fold[1]).all() and np.isnan(cv.cv_error[1])
        assert np.isfinite(cv.per_fold[0]).all()
        assert cv.chosen_K == 3
        assert seen == [3, 5, 3, 5, 3, 3]            # no fit of K=5 after its failure

    def test_failed_warm_start_excludes_every_candidate(self, ds60, monkeypatch):
        import sttvcox.optimizer as opt

        def separated(ds):
            raise sx.SeparationError("injected")

        monkeypatch.setattr(opt, "fit_coxph", separated)
        cfg = sx.FitConfig(K=3, variant="sttv", seed=19)
        with pytest.raises(sx.ConvergenceError, match="every candidate"):
            sx.cross_validate(ds60, cfg, candidates=[3, 5], folds=4, seed=19)


class TestHeldoutError:
    """The held-out error, bit for bit against the per-event risk-set loop.

    Folds run through ``_subset`` as in ``cross_validate``; the effect rows
    are the exact soft threshold (``smooth_threshold_arrays_ref`` at eta = 0)
    or the spline levels, and the predictors one product with the held-out
    covariates, as the single chunk of a small fold forms them.
    """

    @staticmethod
    def loop_error(model, held):
        events = held.event_rows
        if events.size == 0:
            return 0.0
        theta = sx.eval_basis_grid(model.basis, held.time[events]) @ model.gamma_hat.T
        H = theta if model.alphas is None else smooth_threshold_arrays_ref(
            theta, model.alphas, 0.0)
        G = H @ held.covariates.T
        logS0 = risk_set_totals_loop(G, held.risk_start(events), held.covariates, 0)[0]
        return -float(G[np.arange(events.size), events].sum() - logS0.sum())

    @pytest.mark.bitwise
    @pytest.mark.parametrize("variant", ["sttv", "regtv"])
    def test_heldout_error_matches_loop_on_tied_times(self, variant):
        ds = sx.generate(sx.Scenario(n=150, covariance="ar1", seed=4))
        # times to one decimal: most held-out event times are tied
        ds = sx.make_dataset(np.ceil(10.0 * ds.time) / 10.0, ds.event, ds.covariates)
        assert np.unique(ds.time).size < ds.n // 3
        folds = sx.assign_folds(ds.n, 4, ds.event, seed=2)
        model = sx.fit(_subset(ds, np.flatnonzero(folds != 0)),
                       sx.FitConfig(K=3, variant=variant, seed=2))
        assert (model.alphas is None) == (variant == "regtv")
        for r in range(4):
            held = _subset(ds, np.flatnonzero(folds == r))
            assert held.n_events > 0
            assert _heldout_error(model, held).hex() == self.loop_error(model, held).hex()

    @pytest.mark.bitwise
    @pytest.mark.parametrize("thresholded", [True, False], ids=["sttv", "regtv"])
    def test_heldout_error_of_folds_with_and_without_events(self, thresholded):
        rng = np.random.default_rng(6)
        n = 40
        time = rng.integers(1, 9, n) * 0.5
        event = np.zeros(n, dtype=bool)
        event[:3] = True
        ds = sx.make_dataset(time, event, rng.normal(0.0, 2.0, (n, 2)))
        basis = sx.make_basis(3, 2, ds.tau)
        model = SimpleNamespace(basis=basis, gamma_hat=rng.normal(0.0, 0.8, (2, basis.q)),
                                alphas=np.array([0.3, 0.6]) if thresholded else None)
        # three events over five folds leave two folds without one
        folds = sx.assign_folds(n, 5, ds.event, seed=0)
        counts = []
        for r in range(5):
            held = _subset(ds, np.flatnonzero(folds == r))
            counts.append(held.n_events)
            got = _heldout_error(model, held)
            assert got.hex() == self.loop_error(model, held).hex()
            assert (got == 0.0) == (held.n_events == 0)
        assert sorted(counts) == [0, 0, 1, 1, 1]
