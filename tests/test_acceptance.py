"""Ten end-to-end checks, one PASS/FAIL summary line each.

Every tolerance lives in the assertion that enforces it.  Checks 6 to 8
consume the pinned session fixtures from conftest (the 50-replication
benchmark study and the paired 500/2000 runs), so their cost is shared
with nothing else and paid once.
"""

import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import sttvcox as sx
from sttvcox import cli, reporting
from conftest import make_random_dataset, record_criterion
from oracles import (
    fd_gradient,
    mc_threshold_cdf,
    oracle_spline_cox_fit,
    oracle_spline_curves,
)

ROOT = Path(__file__).resolve().parents[1]


class TestOperatorSuite:
    def test_criterion_1_threshold_invariants(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        m = 10_000
        theta = rng.normal(scale=3.0, size=m)
        other = rng.normal(scale=3.0, size=m)
        alpha = np.abs(rng.normal(scale=1.5, size=m)) + 1e-3

        z = sx.soft_threshold(theta, alpha)
        lip_excess = float(
            np.max(np.abs(z - sx.soft_threshold(other, alpha)) - np.abs(theta - other))
        )
        dead_ok = bool(np.all((z == 0.0) == (np.abs(theta) <= alpha)))
        odd_gap = float(np.max(np.abs(z + sx.soft_threshold(-theta, alpha))))
        sup_ratio = 0.0
        for eta in (1e-2, 1e-3, 1e-4):
            h = sx.smooth_threshold(theta, alpha, eta)
            sup_ratio = max(sup_ratio, float(np.max(np.abs(h - z))) / eta)
        elapsed = time.perf_counter() - t0

        passed = (
            lip_excess <= 1e-12
            and dead_ok
            and odd_gap <= 1e-12
            and sup_ratio <= 1.1
            and elapsed < 5.0
        )
        detail = (
            f"1e4 inputs: Lipschitz excess {lip_excess:.1e}, dead zone iff "
            f"{'ok' if dead_ok else 'BROKEN'}, odd gap {odd_gap:.1e}, "
            f"sup|h-zeta|/eta {sup_ratio:.3f} <= 1.1, {elapsed:.2f}s < 5s"
        )
        record_criterion(1, passed, detail)
        assert passed, detail


class TestDerivativeParity:
    def test_criterion_2_gradient_hessian_vs_finite_differences(self):
        t0 = time.perf_counter()
        worst_g = 0.0
        worst_h = 0.0
        for seed in range(20):
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
            g_fd = fd_gradient(value, flat, h=1e-6)
            scale = np.maximum(np.abs(g_fd), 1e-4)
            worst_g = max(worst_g, float(np.max(np.abs(grad(flat) - g_fd) / scale)))

            cb = sx.CoefficientBlock(gamma=gamma, thresholds=alphas, eta=eta)
            H = sx.hessian(cb, ds, ws)
            h = 1e-5
            H_fd = np.zeros_like(H)
            for k in range(flat.size):
                e = np.zeros_like(flat)
                e[k] = h
                H_fd[:, k] = (grad(flat + e) - grad(flat - e)) / (2 * h)
            H_fd = 0.5 * (H_fd + H_fd.T)
            scale = np.maximum(np.abs(H_fd), 1e-3)
            worst_h = max(worst_h, float(np.max(np.abs(H - H_fd) / scale)))
        elapsed = time.perf_counter() - t0

        passed = worst_g < 1e-5 and worst_h < 1e-4 and elapsed < 60.0
        detail = (
            f"20 instances (n<=30, p<=3, q<=6): grad rel err {worst_g:.1e} < 1e-5, "
            f"hess rel err {worst_h:.1e} < 1e-4, {elapsed:.1f}s < 60s"
        )
        record_criterion(2, passed, detail)
        assert passed, detail


class TestOracleParity:
    def test_criterion_3_tiny_threshold_matches_plain_spline_fit(self):
        # alpha = eta = 1e-8 turns the map into the identity up to 1e-8,
        # so the fit must land on the independently coded BFGS solution
        t0 = time.perf_counter()
        worst = 0.0
        for seed in range(5):
            ds = sx.generate(sx.Scenario(n=200, covariance="ind", seed=seed))
            cfg = sx.FitConfig(
                K=3,
                variant="sttv",
                seed=seed,
                alpha_override=(1e-8, 1e-8, 1e-8),
                eta=1e-8,
            )
            model = sx.fit(ds, cfg)
            grid = np.linspace(0.0, ds.tau, 100)
            mine = sx.estimate_curves(model, grid).beta_hat
            gamma_ref, _ = oracle_spline_cox_fit(ds, 3, 3, 1.0 / ds.n**2)
            ref = oracle_spline_curves(gamma_ref, 3, 3, ds.tau, grid).T
            worst = max(worst, float(np.max(np.abs(mine - ref))))
        elapsed = time.perf_counter() - t0

        passed = worst < 1e-3 and elapsed < 120.0
        detail = (
            f"5 seeds, n=200: max curve gap {worst:.1e} < 1e-3, "
            f"{elapsed:.0f}s < 120s"
        )
        record_criterion(3, passed, detail)
        assert passed, detail


class TestLimitingDistribution:
    def test_criterion_4_cdf_matches_monte_carlo(self):
        t0 = time.perf_counter()
        cases = (
            (0.8, 1.0, 0.5, (-0.25, 0.0, 0.25, 0.75)),
            (0.0, 1.0, 0.4, (-0.3, 0.0, 0.05, 0.3)),  # big atom at 0
            (-0.5, 0.7, 0.3, (-0.6, -0.2, 0.0, 0.2)),
        )
        worst = 0.0
        for i, (tt, a, s, xs) in enumerate(cases):
            xs = np.asarray(xs)
            mc = mc_threshold_cdf(tt, a, s, xs, 1_000_000, 900 + i)
            th = sx.limiting_cdf(xs, tt, a, s)
            worst = max(worst, float(np.max(np.abs(mc - th))))
        elapsed = time.perf_counter() - t0

        passed = worst < 0.005 and elapsed < 30.0
        detail = (
            f"3 triples x 4 points, 1e6 draws: max CDF gap {worst:.4f} < 0.005, "
            f"{elapsed:.1f}s < 30s"
        )
        record_criterion(4, passed, detail)
        assert passed, detail


class TestSparseIntervalCoverage:
    def test_criterion_5_coverage_by_signal_strength(self):
        t0 = time.perf_counter()
        alpha, sigma, xi = 1.0, 0.2, 0.05
        results = []
        ok = True
        for k, tt in enumerate((0.0, 0.5, 2.0, 4.0)):
            rng = np.random.Generator(np.random.Philox(777 + k))
            theta_hat = tt + sigma * rng.standard_normal(100_000)
            ci = sx.sparse_ci(theta_hat, alpha, sigma, xi)
            beta = float(sx.soft_threshold(np.array([tt]), alpha)[0])
            cov = float(np.mean((ci.lower <= beta) & (beta <= ci.upper)))
            if abs(tt) <= alpha:
                ok = ok and cov >= 0.95  # conservative over the dead zone
            else:
                ok = ok and abs(cov - 0.95) <= 0.01
            results.append(f"theta~={tt}: {cov:.3f}")
        elapsed = time.perf_counter() - t0

        passed = ok and elapsed < 60.0
        detail = (
            "1e5 draws each, " + ", ".join(results) + f", {elapsed:.1f}s < 60s"
        )
        record_criterion(5, passed, detail)
        assert passed, detail


class TestBenchmarkStudy:
    def test_criterion_6_error_level_and_ratio(self, acceptance_study):
        ag = acceptance_study.aggregates
        sttv = 100.0 * float(ag["sttv"]["aise"][0])
        regtv = 100.0 * float(ag["regtv"]["aise"][0])
        clean = len(acceptance_study.failures) == 0

        passed = clean and 29.0 <= sttv <= 117.0 and sttv <= 1.15 * regtv
        detail = (
            f"50 reps, n=500, ind: STTV AISEx100 {sttv:.1f} in [29, 117], "
            f"STTV/RegTV {sttv / regtv:.3f} <= 1.15, "
            f"{len(acceptance_study.failures)} failed reps"
        )
        record_criterion(6, passed, detail)
        assert passed, detail

    def test_criterion_7_zero_region_detection_rates(self, acceptance_study):
        ag = acceptance_study.aggregates["sttv"]
        etpr1 = float(ag["etpr"][0][0])
        etnr1 = float(ag["etnr"][0][0])
        itnr1 = float(ag["itnr"][0][0])

        passed = (
            0.80 <= etpr1 <= 1.0
            and 0.15 <= etnr1 <= 0.75
            and 0.80 <= itnr1 <= 1.0
        )
        detail = (
            f"STTV coef 1: ETPR {etpr1:.3f} in [0.80, 1], ETNR {etnr1:.3f} "
            f"in [0.15, 0.75], ITNR {itnr1:.3f} in [0.80, 1]"
        )
        record_criterion(7, passed, detail)
        assert passed, detail

    def test_interval_coverage_over_first_zero_region(
        self, acceptance_study, tmp_path
    ):
        # route the kept per-rep curves through the reporting pipeline so
        # the profile comes from the shipped reader, then check it agrees
        # with the study's own bookkeeping
        paths = []
        for i, cv in sorted(acceptance_study.curves["sttv"].items()):
            path = tmp_path / f"curves_rep{i:04d}_sttv.csv"
            path.write_text(reporting.curves_csv_text(cv))
            paths.append(path)
        prof = reporting.coverage_profile(paths, acceptance_study.scenario)
        np.testing.assert_allclose(
            prof["coverage"], acceptance_study.coverage_mean["sttv"], atol=1e-12
        )

        grid = prof["grid"]
        cov1 = prof["coverage"][0]
        # the first effect is identically zero past sqrt(3); coverage is
        # near nominal on the plateau just inside that transition, while
        # the data-sparse tail past t ~ 2.3 (few events, the sieve
        # extrapolates) only has to clear a documented weaker floor
        plateau = float(cov1[(grid >= 1.8) & (grid <= 2.3)].mean())
        interior = float(cov1[(grid >= 1.9) & (grid <= 2.9)].mean())
        assert plateau >= 0.85, f"plateau coverage {plateau:.3f}"
        assert interior >= 0.80, f"interior coverage {interior:.3f}"


class TestConsistencyTrend:
    def test_criterion_8_first_effect_error_shrinks_with_n(
        self, paired_consistency_runs
    ):
        med = {
            n: float(
                np.median(
                    [r.ise[0] for r in paired_consistency_runs[n].reports["sttv"].values()]
                )
            )
            for n in (500, 2000)
        }
        clean = all(
            len(paired_consistency_runs[n].failures) == 0 for n in (500, 2000)
        )

        passed = clean and med[2000] < med[500]
        detail = (
            f"median ISE(coef 1) x100 over 20 paired seeds: "
            f"n=2000 {100 * med[2000]:.2f} < n=500 {100 * med[500]:.2f}"
        )
        record_criterion(8, passed, detail)
        assert passed, detail


class TestCliDeterminism:
    def test_criterion_9_simulate_reruns_are_byte_identical(self, tmp_path):
        study = tmp_path / "study.json"
        study.write_text(
            json.dumps(
                {
                    "scenario": {"n": 100, "covariance": "ind", "seed": 5},
                    "fit": {"K": 2},
                    "variants": ["sttv", "regtv"],
                    "reps": 2,
                }
            )
        )
        blobs = []
        for name, jobs in (("a", 1), ("b", 1), ("c", 2)):
            out = tmp_path / name
            rc = cli.main(
                [
                    "simulate",
                    "--config",
                    str(study),
                    "--output",
                    str(out),
                    "--jobs",
                    str(jobs),
                ]
            )
            assert rc == 0
            blobs.append((out / "metrics.csv").read_bytes())

        passed = blobs[0] == blobs[1] == blobs[2]
        detail = (
            f"metrics.csv ({len(blobs[0])} bytes) identical across a rerun "
            f"and a jobs=2 run"
        )
        record_criterion(9, passed, detail)
        assert passed, detail


class TestReproductionScript:
    def test_criterion_10_offline_script_schema(self, tmp_path):
        script = ROOT / "scripts" / "full_reproduction.py"
        assert script.exists()

        spec_obj = importlib.util.spec_from_file_location("full_reproduction", script)
        mod = importlib.util.module_from_spec(spec_obj)
        spec_obj.loader.exec_module(mod)
        args = mod.parse_args(["--output", "unused"])
        defaults_ok = (
            args.reps == 200
            and list(args.sizes) == [500, 2000, 5000]
            and list(args.covariances) == ["ind", "ar1", "cs"]
            and args.select == "cv"
            and tuple(args.candidates) == tuple(sx.DEFAULT_CANDIDATES)
            and args.folds == 10
        )

        out = tmp_path / "repro"
        proc = subprocess.run(
            [
                sys.executable,
                str(script),
                "--output",
                str(out),
                "--reps",
                "1",
                "--sizes",
                "60",
                "--covariances",
                "ind",
                "--select",
                "fixed",
                "--K",
                "2",
            ],
            capture_output=True,
            text=True,
            cwd=ROOT,
        )
        assert proc.returncode == 0, proc.stderr

        metrics = out / "metrics_ind_60.csv"
        header = metrics.read_text().splitlines()[0]
        header_ok = header == ",".join(reporting.metrics_header(3))
        summary = reporting.build_summary([metrics])
        files_ok = all(
            (out / f).exists() for f in ("summary.csv", "summary.md", "chosen_K.csv")
        )

        passed = defaults_ok and header_ok and summary.n_raw_rows == 2 and files_ok
        detail = (
            "full-grid defaults (200 reps, n in {500, 2000, 5000}, 3 covariances, "
            "CV selection), tiny run emits reporting-compatible metrics, summary "
            "and chosen_K files"
        )
        record_criterion(10, passed, detail)
        assert passed, detail
