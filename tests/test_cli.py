"""End-to-end checks of the command-line front end."""

import csv
import json
import os
import stat
from dataclasses import replace

import numpy as np
import pytest

import sttvcox as sx
from sttvcox import cli
from sttvcox.cli import main
from sttvcox.reporting import CURVE_COLUMNS, build_summary, read_curve_table
from conftest import dependent_pairs


def run(*args):
    return main([str(a) for a in args])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_truth_curves(path, jitter=0.0):
    sc = sx.Scenario(n=100, covariance="ind", seed=0)
    grid = sx.metric_grid(sc)
    lines = [",".join(CURVE_COLUMNS)]
    for j, fn in enumerate(sc.beta_functions, start=1):
        truth = np.asarray(fn(grid), dtype=float) + jitter
        for g, b in zip(grid, truth):
            lines.append(",".join([
                f"z{j}", repr(float(g)), repr(float(b)), repr(float(b)),
                "1.0", repr(float(b - 0.005)), repr(float(b + 0.005)),
                "true" if b == 0.0 else "false",
            ]))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_study(path, **overrides):
    doc = {
        "scenario": {"n": 100, "covariance": "ind", "seed": 3},
        "reps": 2,
        "fit": {"K": 2},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def data20(tmp_path_factory):
    ds = sx.generate(sx.Scenario(n=20, covariance="ind", seed=14))
    path = tmp_path_factory.mktemp("cli") / "data20.csv"
    sx.save_csv(ds, path)
    return path


@pytest.fixture(scope="module")
def data60(tmp_path_factory):
    ds = sx.generate(sx.Scenario(n=60, covariance="ind", seed=9))
    path = tmp_path_factory.mktemp("cli") / "data60.csv"
    sx.save_csv(ds, path)
    return path


@pytest.fixture(scope="module")
def censored20(tmp_path_factory):
    ds = sx.generate(sx.Scenario(n=20, covariance="ind", seed=14))
    censored = sx.make_dataset(ds.time, np.zeros(ds.n, dtype=bool), ds.covariates,
                               tau=ds.tau)
    path = tmp_path_factory.mktemp("cli") / "censored20.csv"
    sx.save_csv(censored, path)
    return path


@pytest.fixture(scope="module")
def repeated20(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "repeated20.csv"
    path.write_text("time,event,z,z\n" + "".join(
        f"{t + 1}.0,{t % 2},0.{t},{t}\n" for t in range(20)))
    return path


@pytest.fixture(scope="module")
def curves100(tmp_path_factory):
    return write_truth_curves(tmp_path_factory.mktemp("cli") / "curves100.csv")


@pytest.fixture(scope="module")
def repeated_curves100(curves100):
    # a scorable curve table plus a second beta_hat column
    lines = curves100.read_text().splitlines()
    path = curves100.with_name("repeated_curves100.csv")
    path.write_text(f"{lines[0]},beta_hat\n" + "".join(f"{line},9.0\n" for line in lines[1:]))
    return path


@pytest.fixture(scope="module")
def nan_curves100(curves100):
    # a scorable curve table with beta_hat = nan in its first row
    lines = curves100.read_text().splitlines()
    cells = lines[1].split(",")
    cells[CURVE_COLUMNS.index("beta_hat")] = "nan"
    path = curves100.with_name("nan_curves100.csv")
    path.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
    return path


SCORE_CONFIG = {"covariance": "ind", "n": 100}

# command, input fixture, flags, config (a simulate config overrides write_study)
EXIT_2_CASES = {
    "fit_K_zero": ("fit", "data20", ["--K", 0], None),
    "fit_eta_zero": ("fit", "data20", ["--eta", 0], None),
    "fit_multistart_zero": ("fit", "data20", ["--multistart", 0], None),
    "fit_rho_negative": ("fit", "data20", ["--rho", -1], None),
    "fit_alpha_scale_zero": ("fit", "data20", ["--alpha-scale", 0], None),
    "fit_two_alphas_for_three_covariates":
        ("fit", "data20", [], {"alpha_override": [0.1, 0.2]}),
    "fit_no_events": ("fit", "censored20", [], None),
    "fit_tau_past_last_time": ("fit", "data20", ["--tau", 100], None),
    "fit_repeated_column": ("fit", "repeated20", [], None),
    "fit_standardize_string": ("fit", "data20", [], {"standardize": "false"}),
    "fit_unknown_key": ("fit", "data20", [], {"multi_start": 3}),
    "fit_coxph_K_zero": ("fit", "data20", ["--variant", "coxph", "--K", 0], None),
    # JSON true is a bool, not the number 1
    "fit_K_true": ("fit", "data20", [], {"K": True}),
    "fit_eta_true": ("fit", "data20", [], {"eta": True}),
    "cv_eta_zero": ("cv", "data60", ["--eta", 0, "--folds", 2], None),
    "cv_multistart_zero": ("cv", "data60", ["--multistart", 0, "--folds", 2], None),
    "cv_no_events": ("cv", "censored20", ["--folds", 2], None),
    "cv_tau_past_last_time": ("cv", "data60", ["--folds", 2], {"tau": 100}),
    "cv_negative_seed": ("cv", "data60", ["--seed", -1, "--folds", 2], None),
    "cv_fractional_candidate": ("cv", "data60", ["--folds", 2], {"candidates": [2.5, 3]}),
    "cv_candidate_true": ("cv", "data60", ["--folds", 2], {"candidates": [True, 3]}),
    "cv_coxph_variant": ("cv", "data60", ["--folds", 2], {"variant": "coxph"}),
    "cv_repeated_column": ("cv", "repeated20", ["--folds", 2], None),
    "cv_refit_string": ("cv", "data60", ["--folds", 2], {"refit": "false"}),
    "cv_unknown_key": ("cv", "data60", ["--folds", 2], {"refitt": True}),
    "cv_grid_points_zero_without_refit": ("cv", "data60", ["--folds", 2], {"grid_points": 0}),
    "cv_K_setting": ("cv", "data60", ["--folds", 2, "--candidates", "2,3"], {"K": 7}),
    "score_unknown_key": ("score", "curves100", [], {**SCORE_CONFIG, "varaint": "x"}),
    "score_repeated_column": ("score", "repeated_curves100", [], SCORE_CONFIG),
    "score_nan_cell": ("score", "nan_curves100", [], SCORE_CONFIG),
    "simulate_K_zero": ("simulate", None, [], {"fit": {"K": 0}}),
    "simulate_level": ("simulate", None, [], {"level": 1.5}),
    "simulate_fractional_n": ("simulate", None, [], {"scenario": {"n": 10.5}}),
    "simulate_n_true":
        ("simulate", None, [], {"scenario": {"n": True, "covariance": "ind", "seed": 3}}),
    "simulate_infinite_horizon":
        ("simulate", None, [], {"scenario": {"n": 30, "admin_censor": float("inf")}}),
    "simulate_horizon_past_grid":
        ("simulate", None, [], {"scenario": {"n": 30, "admin_censor": 25.0}}),
    "simulate_no_variants": ("simulate", None, [], {"variants": []}),
    "simulate_variants_string": ("simulate", None, [], {"variants": "sttv"}),
    "simulate_coxph_variant": ("simulate", None, [], {"variants": ["coxph"]}),
    "simulate_dump_curves_string": ("simulate", None, [], {"dump_curves": "false"}),
    "simulate_unknown_key": ("simulate", None, [], {"jobz": 2}),
    "simulate_unknown_scenario_key":
        ("simulate", None, [], {"scenario": {"n": 40, "covarance": "ar1"}}),
    "simulate_unknown_fit_key": ("simulate", None, [], {"fit": {"K": 2, "Kk": 3}}),
}


@pytest.mark.parametrize("case", EXIT_2_CASES.values(), ids=EXIT_2_CASES.keys())
def test_exit_2_leaves_no_output(case, tmp_path, request):
    command, data, flags, config = case
    argv = [command, "--output", tmp_path / "out", *flags]
    if data is not None:
        argv += ["--input", request.getfixturevalue(data)]
    if command == "simulate":
        argv += ["--config", write_study(tmp_path / "study.json", **config)]
    elif config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", path]
    assert run(*argv) == 2
    assert not (tmp_path / "out").exists()


def test_unknown_keys_named_at_every_level(tmp_path, capsys):
    study = write_study(tmp_path / "study.json", jobz=2,
                        scenario={"n": 40, "covarance": "ar1"}, fit={"K": 2, "Kk": 3})
    assert run("simulate", "--config", study, "--output", tmp_path / "out") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error [ValidationError] config {study} has unknown keys "
                   "['scenario.covarance', 'fit.Kk', 'jobz']"]


def test_key_given_as_flag_and_in_config_counts_as_read(data20, tmp_path):
    config = tmp_path / "fit.json"
    config.write_text(json.dumps({"K": 2, "variant": "regtv", "seed": 1, "grid_points": 20}))
    assert run("fit", "--config", config, "--input", data20, "--output", tmp_path / "fit",
               "--K", 2, "--variant", "regtv", "--seed", 1, "--grid-points", 20) == 0
    study = write_study(tmp_path / "study.json", reps=1, variants=["sttv"],
                        scenario={"n": 60, "covariance": "ind", "seed": 3})
    assert run("simulate", "--config", study, "--output", tmp_path / "sim",
               "--seed", 3, "--variant", "sttv", "--K", 2) == 0


@pytest.mark.parametrize(
    "argv",
    [["fit", "--K", 2], ["cv", "--candidates", "2,3", "--folds", 3, "--refit"]],
    ids=["fit", "cv_refit"],
)
def test_unconverged_fit_logs_one_warning(argv, data60, tmp_path, monkeypatch, caplog):
    def warnings():
        return [r.getMessage() for r in caplog.records
                if r.name == "sttvcox.cli" and r.levelname == "WARNING"]

    argv = [*argv, "--input", data60, "--grid-points", 30, "--output"]
    with caplog.at_level("WARNING", logger="sttvcox.cli"):
        assert run(*argv, tmp_path / "converged") == 0
        assert warnings() == []
        real = cli.fit
        monkeypatch.setattr(cli, "fit", lambda ds, cfg: replace(
            real(ds, cfg), converged=False, stop_reason="stalled", final_grad_norm=2.5e-3
        ))
        assert run(*argv, tmp_path / "stalled") == 0
    assert warnings() == ["fit did not converge: stop reason stalled, gradient max-norm 2.500e-03"]


class TestFit:
    def test_twenty_row_contract(self, data20, tmp_path):
        out = tmp_path / "out"
        assert run("fit", "--input", data20, "--output", out, "--K", 2,
                   "--seed", 1) == 0
        assert (out / "manifest.json").exists()
        assert (out / "model.json").exists()
        rows = read_rows(out / "curves.csv")
        assert tuple(rows[0]) == CURVE_COLUMNS
        assert len(rows) - 1 == 3 * 200
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert manifest["seed"] == 1

    def test_regtv_never_flags_zero(self, data20, tmp_path):
        out = tmp_path / "out"
        assert run("fit", "--input", data20, "--output", out, "--K", 2,
                   "--variant", "regtv", "--grid-points", 40) == 0
        table = read_curve_table(out / "curves.csv")
        assert not table.zero_flags.any()

    def test_coxph_constant_curves(self, data20, tmp_path):
        out = tmp_path / "out"
        assert run("fit", "--input", data20, "--output", out,
                   "--variant", "coxph", "--grid-points", 30) == 0
        table = read_curve_table(out / "curves.csv")
        assert np.all(table.beta_hat == table.beta_hat[:, :1])
        doc = json.loads((out / "model.json").read_text())
        assert len(doc["beta"]) == 3
        # the Cox beta with its Wald interval at every grid point, no zeros
        beta = np.array(doc["beta"])[:, None]
        se = np.sqrt(np.diag(doc["covariance"]))[:, None]
        lower, upper = sx.wald_ci(beta, se, 1.0 - 0.95)
        for got, want in ((table.theta_hat, beta), (table.beta_hat, beta),
                          (table.sigma_hat, se), (table.ci_lower, lower),
                          (table.ci_upper, upper)):
            np.testing.assert_array_equal(got, np.broadcast_to(want, got.shape))
        assert not table.zero_flags.any()

    def test_coxph_constant_covariate_reads_back_with_inf(self, tmp_path):
        ds = sx.generate(sx.Scenario(n=60, covariance="ind", seed=9))
        Z = ds.covariates.copy()
        Z[:, 2] = 1.0
        data = tmp_path / "const.csv"
        sx.save_csv(sx.make_dataset(ds.time, ds.event, Z), data)
        out = tmp_path / "out"
        assert run("fit", "--input", data, "--output", out,
                   "--variant", "coxph", "--grid-points", 10) == 0
        table = read_curve_table(out / "curves.csv")
        assert np.isfinite(table.sigma_hat[:2]).all()
        assert np.all(table.sigma_hat[2] == np.inf)
        assert np.all(table.ci_lower[2] == -np.inf) and np.all(table.ci_upper[2] == np.inf)

    def test_standardize_round_trip(self, tmp_path):
        # reported on the original covariate scale, a standardized refit has
        # to land on the same curves; the non-thresholded variant is used
        # because the threshold is set from warm-start magnitudes on the
        # fitted scale and therefore moves with standardization
        ds = sx.generate(sx.Scenario(n=400, covariance="ind", seed=31))
        data = tmp_path / "d.csv"
        sx.save_csv(ds, data)
        tables = []
        for flags in ((), ("--standardize",)):
            out = tmp_path / f"out{len(flags)}"
            assert run("fit", "--input", data, "--output", out, "--K", 2,
                       "--variant", "regtv", "--grid-points", 60,
                       "--seed", 3, *flags) == 0
            tables.append(read_curve_table(out / "curves.csv"))
        diff = np.max(np.abs(tables[0].beta_hat - tables[1].beta_hat))
        assert diff < 1e-2

    def test_missing_input_is_validation_error(self, tmp_path):
        assert run("fit", "--output", tmp_path / "out") == 2

    def test_nonconvergence_exit_code(self, tmp_path):
        data = tmp_path / "sep.csv"
        data.write_text("time,event,z1\n1.0,1,1.0\n2.0,1,0.0\n")
        out = tmp_path / "out"
        assert run("fit", "--input", data, "--output", out,
                   "--variant", "coxph") == 4

    def test_numeric_failure_exit_code(self, data20, tmp_path):
        # q = 12 columns per coefficient cannot be identified from 20 rows
        assert run("fit", "--input", data20, "--output", tmp_path / "out",
                   "--K", 9) == 3

    def test_overflowing_rho_exits_3(self, data20, tmp_path, capsys):
        assert run("fit", "--input", data20, "--output", tmp_path / "out", "--rho", 1e308) == 3
        err = capsys.readouterr().err
        assert "NumericError" in err and "overflows the penalty" in err
        assert not (tmp_path / "out" / "model.json").exists()

    @pytest.mark.parametrize("rho", [1e305, 1e306])
    def test_rho_overflowing_the_newton_system_exits_3(self, tmp_path, capsys, rho):
        # 2 rho P is finite, but the gradient or the Newton step overflows
        data = tmp_path / "data.csv"
        sx.save_csv(sx.generate(sx.Scenario(n=200, seed=1)), data)
        out = tmp_path / "out"
        assert run("fit", "--input", data, "--output", out, "--K", 3, "--rho", rho) == 3
        err = capsys.readouterr().err
        assert "NumericError" in err and f"rho {rho} overflows the" in err
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("variant, code", [("sttv", 3), ("coxph", 3), ("regtv", 0)])
    def test_dependent_columns_exit_code(self, tmp_path, capsys, caplog, variant, code):
        # a singular warm start fails sttv and coxph; regtv starts from zeros
        data = tmp_path / "dependent.csv"
        sx.save_csv(dependent_pairs(), data)
        out = tmp_path / "out"
        assert run("fit", "--input", data, "--output", out, "--K", 2,
                   "--variant", variant) == code
        said = capsys.readouterr().err + caplog.text
        assert "columns z1, z2 are constant or linearly dependent" in said
        assert (out / "model.json").exists() == (code == 0)

    def test_coxph_without_positive_variance_exits_3(self, tmp_path, capsys):
        # z2 = 2 z1, yet LAPACK inverts the rounded information matrix, and
        # its inverse holds negative variances: no interval may be written
        z1 = np.random.default_rng(0).normal(size=30)
        rng = np.random.default_rng(11)
        ds = sx.make_dataset(rng.exponential(size=30), rng.random(30) < 0.7,
                             np.column_stack([z1, 2.0 * z1]))
        assert (np.diag(sx.fit_coxph(ds).covariance) < 0).all()
        data = tmp_path / "collinear.csv"
        sx.save_csv(ds, data)
        out = tmp_path / "out"
        assert run("fit", "--input", data, "--output", out, "--variant", "coxph") == 3
        err = capsys.readouterr().err
        assert "NumericError" in err and "no positive finite variance" in err
        assert "columns z1, z2 are constant or linearly dependent" in err
        assert not (out / "curves.csv").exists() and not (out / "model.json").exists()

    def test_cv_on_dependent_columns_exits_4(self, tmp_path, capsys, caplog):
        # every candidate is excluded, so cross-validation fails as documented
        data = tmp_path / "dependent.csv"
        sx.save_csv(dependent_pairs(), data)
        assert run("cv", "--input", data, "--output", tmp_path / "out",
                   "--candidates", "2,3", "--folds", 2) == 4
        assert caplog.text.count("failed and is excluded: singular information matrix") == 2
        assert "every candidate K failed" in capsys.readouterr().err

    def test_cv_all_failed_error_names_the_causes(self, tmp_path, capsys):
        # the last stderr line carries each excluded candidate's error, in K order
        data = tmp_path / "dependent.csv"
        sx.save_csv(dependent_pairs(), data)
        assert run("cv", "--input", data, "--output", tmp_path / "out",
                   "--candidates", "3,2", "--folds", 2) == 4
        last = capsys.readouterr().err.strip().splitlines()[-1]
        prefix = "error [ConvergenceError] every candidate K failed during cross-validation: "
        assert last.startswith(prefix + "K=2: NumericError: singular information matrix")
        assert "; K=3: NumericError: singular information matrix" in last

    @pytest.mark.parametrize("bad", [{"K": "abc"}, {"rho": [1, 2]}, {"K": 1e400}],
                             ids=["K_text", "rho_list", "K_inf"])
    def test_non_numeric_setting_rejected_before_output(self, data20, tmp_path, bad):
        config = tmp_path / "fit.json"
        config.write_text(json.dumps(bad))
        out = tmp_path / "out"
        assert run("fit", "--config", config, "--input", data20, "--output", out) == 2
        assert not out.exists()

    def test_quoted_covariate_name_reads_back(self, data20, tmp_path):
        ds = sx.load_csv(data20)
        data = tmp_path / "quoted.csv"
        sx.save_csv(sx.make_dataset(ds.time, ds.event, ds.covariates,
                                    covariate_names=("a,b", "z2", "z3")), data)
        out = tmp_path / "out"
        assert run("fit", "--input", data, "--output", out, "--variant", "coxph",
                   "--grid-points", 20) == 0
        assert read_curve_table(out / "curves.csv").covariate_names == ("a,b", "z2", "z3")

    def test_alpha_override_recorded(self, data20, tmp_path):
        out = tmp_path / "out"
        assert run("fit", "--input", data20, "--output", out, "--K", 2,
                   "--alpha-override", 0.4, "--grid-points", 30) == 0
        doc = json.loads((out / "model.json").read_text())
        assert doc["alphas"] == [0.4, 0.4, 0.4]


class TestCv:
    def test_writes_two_candidates(self, data60, tmp_path):
        out = tmp_path / "out"
        assert run("cv", "--input", data60, "--output", out,
                   "--candidates", "3,5", "--folds", 4) == 0
        doc = json.loads((out / "cv.json").read_text())
        assert doc["candidates"] == [3, 5]
        assert doc["chosen_K"] in (3, 5)
        assert len(doc["per_fold"]) == 2
        assert len(doc["per_fold"][0]) == 4

    def test_deterministic_output_bytes(self, data60, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("cv", "--input", data60, "--output", out,
                       "--candidates", "2,3", "--folds", 2, "--seed", 7) == 0
            blobs.append((out / "cv.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_empty_candidates_rejected(self, data60, tmp_path):
        with pytest.raises(SystemExit) as err:
            run("cv", "--input", data60, "--output", tmp_path / "out",
                "--candidates", "")
        assert err.value.code == 2

    def test_K_flag_rejected(self, data60, tmp_path):
        # cv takes K only from its candidates
        with pytest.raises(SystemExit) as err:
            run("cv", "--input", data60, "--output", tmp_path / "out",
                "--candidates", "2,3", "--folds", 2, "--K", 7)
        assert err.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_non_numeric_setting_rejected_before_output(self, data60, tmp_path):
        config = tmp_path / "cv.json"
        config.write_text(json.dumps({"grid_points": "many", "refit": True}))
        out = tmp_path / "out"
        assert run("cv", "--config", config, "--input", data60, "--output", out,
                   "--candidates", "2,3", "--folds", 2) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flags, config", [
        (["--folds", 1], {}),
        (["--folds", 61], {}),
        (["--folds", 2], {"candidates": [0, 3]}),
    ], ids=["one_fold", "folds_above_n", "zero_candidate"])
    def test_bad_cv_setting_rejected_before_output(self, data60, tmp_path, flags, config):
        path = tmp_path / "cv.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run("cv", "--config", path, "--input", data60, "--output", out,
                   *flags) == 2
        assert not out.exists()

    def test_refit_writes_model_at_chosen_K(self, data60, tmp_path):
        out = tmp_path / "out"
        assert run("cv", "--input", data60, "--output", out,
                   "--candidates", "2,3", "--folds", 3, "--refit",
                   "--grid-points", 30) == 0
        cv_doc = json.loads((out / "cv.json").read_text())
        model = json.loads((out / "model.json").read_text())
        assert model["config"]["K"] == cv_doc["chosen_K"]
        assert (out / "curves.csv").exists()


class TestSimulate:
    def test_two_rows_per_variant(self, tmp_path):
        study = write_study(tmp_path / "study.json")
        out = tmp_path / "out"
        assert run("simulate", "--config", study, "--output", out) == 0
        rows = read_rows(out / "metrics.csv")
        data = rows[1:]
        assert len(data) == 4
        variant_col = rows[0].index("variant")
        counts = {}
        for row in data:
            counts[row[variant_col]] = counts.get(row[variant_col], 0) + 1
        assert counts == {"sttv": 2, "regtv": 2}

    def test_summary_lists_both_variants(self, tmp_path):
        study = write_study(tmp_path / "study.json")
        out = tmp_path / "out"
        assert run("simulate", "--config", study, "--output", out) == 0
        doc = json.loads((out / "summary.json").read_text())
        aise_variants = {
            c["variant"] for c in doc["cells"] if c["metric"] == "aise"
        }
        assert aise_variants == {"sttv", "regtv"}
        assert doc["variants"] == ["sttv", "regtv"]
        assert (out / "summary.md").exists()

    def test_byte_identical_reruns(self, tmp_path):
        study = write_study(tmp_path / "study.json")
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("simulate", "--config", study, "--output", out) == 0
            blobs.append((out / "metrics.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_jobs_do_not_change_bytes(self, tmp_path):
        study = write_study(tmp_path / "study.json")
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert run("simulate", "--config", study, "--output", serial) == 0
        assert run("simulate", "--config", study, "--output", parallel,
                   "--jobs", 2) == 0
        assert (serial / "metrics.csv").read_bytes() == \
            (parallel / "metrics.csv").read_bytes()

    def test_non_numeric_reps_rejected_before_output(self, tmp_path):
        study = write_study(tmp_path / "study.json", reps="two")
        out = tmp_path / "out"
        assert run("simulate", "--config", study, "--output", out) == 2
        assert not out.exists()

    def test_zero_reps_rejected_before_output(self, tmp_path):
        study = write_study(tmp_path / "study.json", reps=0)
        out = tmp_path / "out"
        assert run("simulate", "--config", study, "--output", out) == 2
        assert not out.exists()

    def test_every_replication_failed_exits_3(self, tmp_path, capsys):
        # q = 12 basis columns per coefficient cannot be identified from
        # about 26 events, so both variants fail in the only replication
        study = write_study(tmp_path / "study.json",
                            scenario={"n": 30, "covariance": "ind", "seed": 5},
                            reps=1, fit={"K": 9})
        out = tmp_path / "out"
        assert run("simulate", "--config", study, "--output", out) == 3
        assert len(read_rows(out / "metrics.csv")) == 1
        doc = json.loads((out / "summary.json").read_text())
        assert doc["cells"] == []
        assert sorted(f[1] for f in doc["failed_reps"]) == ["regtv", "sttv"]
        assert all(f[0] == 0 and f[2] for f in doc["failed_reps"])
        assert not (out / "summary.md").exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1] == "error [NumericError] every replication failed (2 failures)"

    def test_variants_string_named_with_its_type(self, tmp_path, capsys):
        study = write_study(tmp_path / "study.json", variants="sttv")
        assert run("simulate", "--config", study, "--output", tmp_path / "out") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error [ValidationError] variants setting must be a JSON list, "
                       "got str 'sttv'"]

    def test_missing_reps_rejected(self, tmp_path):
        study = tmp_path / "study.json"
        study.write_text(json.dumps({"scenario": {"n": 50}}))
        assert run("simulate", "--config", study,
                   "--output", tmp_path / "out") == 2


class TestScore:
    def test_truth_scores_zero_ise(self, tmp_path):
        curves = write_truth_curves(tmp_path / "curves.csv")
        config = tmp_path / "score.json"
        config.write_text(json.dumps({"covariance": "ind", "n": 100}))
        out = tmp_path / "out"
        assert run("score", "--config", config, "--input", curves,
                   "--output", out) == 0
        rows = read_rows(out / "metrics.csv")
        header, row = rows[0], rows[1]
        for j in (1, 2, 3):
            assert float(row[header.index(f"ise_{j}")]) == 0.0
            assert float(row[header.index(f"etpr_{j}")]) == 1.0
        assert float(row[header.index("aise")]) == 0.0

    def test_missing_column_is_named(self, tmp_path, capsys):
        curves = tmp_path / "curves.csv"
        cols = [c for c in CURVE_COLUMNS if c != "ci_upper"]
        curves.write_text(",".join(cols) + "\n"
                          + "z1,0.0,1.0,1.0,1.0,0.5,false\n")
        config = tmp_path / "score.json"
        config.write_text(json.dumps({"covariance": "ind", "n": 100}))
        assert run("score", "--config", config, "--input", curves,
                   "--output", tmp_path / "out") == 2
        assert "ci_upper" in capsys.readouterr().err

    # the score config repeats the study's scenario block, so a curve grid
    # on a shortened horizon has to be read the same way by both commands
    @pytest.mark.parametrize("extra", [{}, {"admin_censor": 2.5}],
                             ids=["default", "admin_censor"])
    def test_rescore_matches_simulate_row(self, tmp_path, extra):
        scenario = {"n": 80, "covariance": "ind", "seed": 5, **extra}
        study = write_study(
            tmp_path / "study.json",
            scenario=scenario,
            reps=1,
            variants=["sttv"],
            dump_curves=True,
        )
        sim_out = tmp_path / "sim"
        assert run("simulate", "--config", study, "--output", sim_out) == 0
        sim_rows = read_rows(sim_out / "metrics.csv")

        config = tmp_path / "score.json"
        config.write_text(json.dumps({**scenario, "variant": "sttv", "rep": 0}))
        score_out = tmp_path / "score"
        assert run("score", "--config", config,
                   "--input", sim_out / "curves_rep0000_sttv.csv",
                   "--output", score_out) == 0
        score_rows = read_rows(score_out / "metrics.csv")
        assert score_rows == sim_rows

    @pytest.mark.parametrize(
        "bad", [{"covariance": "bogus"}, {"n": -5}, {"n": "many"}],
        ids=["covariance", "n", "n_text"])
    def test_invalid_scenario_rejected(self, tmp_path, bad):
        curves = write_truth_curves(tmp_path / "curves.csv")
        config = tmp_path / "score.json"
        config.write_text(json.dumps({"covariance": "ind", "n": 100, **bad}))
        out = tmp_path / "out"
        assert run("score", "--config", config, "--input", curves,
                   "--output", out) == 2
        assert not (out / "metrics.csv").exists()

    def test_non_numeric_rep_rejected_before_output(self, tmp_path):
        curves = write_truth_curves(tmp_path / "curves.csv")
        config = tmp_path / "score.json"
        config.write_text(json.dumps({"covariance": "ind", "n": 100, "rep": "x"}))
        out = tmp_path / "out"
        assert run("score", "--config", config, "--input", curves,
                   "--output", out) == 2
        assert not out.exists()

    def test_quoted_variant_reads_back(self, curves100, tmp_path):
        config = tmp_path / "score.json"
        config.write_text(json.dumps({**SCORE_CONFIG, "variant": "a,b"}))
        out = tmp_path / "out"
        assert run("score", "--config", config, "--input", curves100, "--output", out) == 0
        summary = build_summary([out / "metrics.csv"])
        assert {row[2] for row in summary.rows} == {"a,b"}

    def test_seed_flag_reaches_manifest(self, tmp_path):
        curves = write_truth_curves(tmp_path / "curves.csv")
        config = tmp_path / "score.json"
        config.write_text(json.dumps({"covariance": "ind", "n": 100, "seed": 4}))
        out = tmp_path / "out"
        assert run("score", "--config", config, "--input", curves,
                   "--output", out, "--seed", 11) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 11


def test_outputs_take_their_mode_from_the_umask(data60, tmp_path):
    old = os.umask(0o022)
    try:
        data = tmp_path / "data.csv"
        sx.save_csv(sx.generate(sx.Scenario(n=60, seed=3)), data)
        assert run("fit", "--input", data, "--K", 2, "--output", tmp_path / "fit") == 0
        assert run("cv", "--input", data60, "--candidates", "2,3", "--folds", 2, "--refit",
                   "--output", tmp_path / "cv") == 0
        study = write_study(tmp_path / "study.json", dump_curves=True)
        assert run("simulate", "--config", study, "--output", tmp_path / "sim") == 0
        config = tmp_path / "score.json"
        config.write_text(json.dumps({"covariance": "ind", "n": 100}))
        curves = tmp_path / "sim" / "curves_rep0000_sttv.csv"
        assert run("score", "--config", config, "--input", curves,
                   "--output", tmp_path / "score") == 0
    finally:
        os.umask(old)
    written = [data, *(p for d in ("fit", "cv", "sim", "score") for p in (tmp_path / d).iterdir())]
    assert {p.name for p in written} >= {"data.csv", "model.json", "curves.csv", "cv.json",
                                         "manifest.json", "metrics.csv", "summary.md"}
    assert {p.name: oct(stat.S_IMODE(p.stat().st_mode)) for p in written} == {
        p.name: oct(0o644) for p in written}
    assert not [p for p in tmp_path.rglob(".tmp-*")]
