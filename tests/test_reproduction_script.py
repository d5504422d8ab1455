"""The full-grid reproduction script on tiny settings."""

import csv
import importlib.util
import json
import platform
from pathlib import Path

import numpy as np

import sttvcox as sx

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "full_reproduction.py"


def load_script():
    spec = importlib.util.spec_from_file_location("full_reproduction", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def test_cv_selection_writes_the_replicate_choices(tmp_path):
    out = tmp_path / "repro"
    argv = ["--output", str(out), "--reps", "1", "--sizes", "60",
            "--covariances", "ind", "--select", "cv",
            "--candidates", "2", "3", "--folds", "2"]
    assert load_script().main(argv) == 0

    assert len(read_rows(out / "metrics_ind_60.csv")) == 2
    timing = json.loads((out / "timing.json").read_text())
    assert (timing["python"], timing["numpy"]) == (platform.python_version(), np.__version__)
    (setting,) = timing["settings"]
    assert setting["wall_s"] > 0
    assert {k: setting[k] for k in ("covariance", "n", "reps", "fits", "failures")} == {
        "covariance": "ind", "n": 60, "reps": 1, "fits": {"sttv": 1, "regtv": 1},
        "failures": {}}
    # the timing stays out of the deterministic tables
    for name in ("summary.csv", "summary.md", "chosen_K.csv", "failures.csv"):
        assert "wall" not in (out / name).read_text()
    chosen = read_rows(out / "chosen_K.csv")
    assert sorted(row[2] for row in chosen) == ["regtv", "sttv"]
    assert all(int(row[4]) in (2, 3) for row in chosen)

    configs = [sx.FitConfig(K=3, variant=v) for v in ("sttv", "regtv")]
    study = sx.replicate(sx.Scenario(n=60, covariance="ind", seed=0), configs,
                         reps=1, candidates=(2, 3), folds=2)
    assert {row[2]: int(row[4]) for row in chosen} == \
        {v: study.chosen_K[v][0] for v in study.variants}


def test_bad_cv_setting_stops_before_any_file(tmp_path, capsys):
    out = tmp_path / "repro"
    argv = ["--output", str(out), "--reps", "1", "--sizes", "60",
            "--covariances", "ind", "--folds", "1"]
    assert load_script().main(argv) != 0
    assert not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error [ValidationError] folds must be >= 2, got 1"]


def test_jobs_below_one_rejected(tmp_path, capsys):
    out = tmp_path / "repro"
    argv = ["--output", str(out), "--reps", "1", "--sizes", "60",
            "--covariances", "ind", "--select", "fixed", "--jobs", "0"]
    assert load_script().main(argv) != 0
    assert not out.exists()
    assert "jobs must be >= 1" in capsys.readouterr().err


def test_every_replication_failed_exits_3(tmp_path, capsys):
    out = tmp_path / "repro"
    argv = ["--output", str(out), "--reps", "1", "--sizes", "30",
            "--covariances", "ind", "--select", "fixed", "--K", "9"]
    assert load_script().main(argv) == 3
    assert read_rows(out / "metrics_ind_30.csv") == []
    failures = read_rows(out / "failures.csv")
    assert sorted(row[2] for row in failures) == ["regtv", "sttv"]
    (setting,) = json.loads((out / "timing.json").read_text())["settings"]
    assert setting["fits"] == {"sttv": 0, "regtv": 0}
    assert sum(setting["failures"].values()) == 2
    assert set(setting["failures"]) <= {"ConvergenceError", "NumericError", "SeparationError",
                                        "ValidationError"}
    assert not (out / "summary.csv").exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error [NumericError] every replication failed (2 failures)"]


def test_unwritable_output_exits_2_like_the_cli(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "repro"
    argv = ["--output", str(out), "--reps", "1", "--sizes", "60",
            "--covariances", "ind", "--select", "fixed"]
    assert load_script().main(argv) == 2
    assert not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error [NotADirectoryError]")
