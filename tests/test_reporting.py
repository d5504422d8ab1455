"""Aggregation of replication output into summary tables."""

import csv

import numpy as np
import pytest

import sttvcox as sx
from sttvcox.reporting import (
    CURVE_COLUMNS,
    build_summary,
    coverage_profile,
    curves_csv_text,
    metric_rows,
    metrics_header,
    read_curve_table,
    render_csv,
    render_markdown,
)


def step_two(t):
    return 2.0 * (np.asarray(t, dtype=float) < 1.5)


def write_metrics(path, rows, p=1):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(metrics_header(p))
        writer.writerows(rows)
    return path


def one_coef_row(rep, ise, variant="sttv"):
    # for p = 1 the aise equals the single ise and every ratio is set to 1
    return ["ind", "500", variant, str(rep), repr(ise), repr(ise),
            "1.0", "1.0", "1.0", "1.0"]


def write_curves(path, grid, lower, upper, names=("z1",)):
    lower = np.atleast_2d(lower)
    upper = np.atleast_2d(upper)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_COLUMNS)
        for i, name in enumerate(names):
            for g, lo, hi in zip(grid, lower[i], upper[i]):
                mid = float(0.5 * (lo + hi))
                writer.writerow([name, repr(float(g)), repr(mid), repr(mid),
                                 "1.0", repr(float(lo)), repr(float(hi)),
                                 "false"])
    return path


def cell(summary, metric, coef):
    for row in summary.rows:
        if row[3] == metric and row[4] == coef:
            return row
    raise AssertionError(f"no cell for {metric} coef {coef}")


class TestBuildSummary:
    def test_two_rep_hand_arithmetic(self, tmp_path):
        path = write_metrics(tmp_path / "m.csv",
                             [one_coef_row(0, 0.01), one_coef_row(1, 0.03)])
        summary = build_summary([path])
        _, _, _, _, _, mean, sd, reps = cell(summary, "ise", 1)
        assert reps == 2
        assert mean == pytest.approx(2.0, rel=1e-12)
        assert sd == pytest.approx(100.0 * np.std([0.01, 0.03], ddof=1),
                                   rel=1e-12)
        assert sd == pytest.approx(1.41, abs=0.005)

    def test_ratios_not_scaled(self, tmp_path):
        path = write_metrics(tmp_path / "m.csv",
                             [one_coef_row(0, 0.01), one_coef_row(1, 0.03)])
        summary = build_summary([path])
        assert cell(summary, "etpr", 1)[5] == pytest.approx(1.0, rel=1e-12)
        assert cell(summary, "aise", None)[5] == pytest.approx(2.0, rel=1e-12)

    def test_single_rep_footnoted_zero_sd(self, tmp_path):
        path = write_metrics(tmp_path / "m.csv", [one_coef_row(0, 0.02)])
        summary = build_summary([path])
        assert cell(summary, "ise", 1)[6] == 0.0
        assert any("single replication" in note for note in summary.footnotes)

    def test_empty_inputs_rejected(self, tmp_path):
        with pytest.raises(sx.ValidationError):
            build_summary([])
        header_only = write_metrics(tmp_path / "h.csv", [])
        with pytest.raises(sx.ValidationError):
            build_summary([header_only])

    def test_row_order_permutation_invariance(self, tmp_path):
        rows = [one_coef_row(r, 0.01 * (r + 1)) for r in range(4)]
        a = write_metrics(tmp_path / "a.csv", rows)
        b = write_metrics(tmp_path / "b.csv", rows[::-1])
        assert build_summary([a]).rows == build_summary([b]).rows

    def test_duplicate_rep_rejected(self, tmp_path):
        path = write_metrics(tmp_path / "m.csv",
                             [one_coef_row(0, 0.01), one_coef_row(0, 0.03)])
        with pytest.raises(sx.ValidationError):
            build_summary([path])

    def test_mixed_schemas_rejected(self, tmp_path):
        a = write_metrics(tmp_path / "a.csv", [one_coef_row(0, 0.01)], p=1)
        b = tmp_path / "b.csv"
        with open(b, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(metrics_header(3))
            writer.writerow(["ind", "500", "sttv", "0", "0.01"]
                            + ["0.01"] * 3 + ["1.0"] * 12)
        with pytest.raises(sx.ValidationError):
            build_summary([a, b])

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "m.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["covariance", "n", "variant", "rep", "ise_1"])
            writer.writerow(["ind", "500", "sttv", "0", "0.01"])
        with pytest.raises(sx.SchemaError):
            build_summary([path])

    def test_recomputable_from_raw_rows(self, tmp_path):
        sc = sx.Scenario(n=60, covariance="ind", seed=17)
        res = sx.replicate(sc, [sx.FitConfig(K=2, variant="sttv", seed=17)],
                           reps=3)
        header, rows = metric_rows(res)
        path = tmp_path / "m.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        summary = build_summary([path])

        with open(path, newline="") as fh:
            records = list(csv.DictReader(fh))
        for row in summary.rows:
            _, _, _, metric, coef, mean, sd, reps = row
            col = metric if coef is None else f"{metric}_{coef}"
            vals = np.array([float(r[col]) for r in records])
            scale = 100.0 if metric in ("ise", "aise") else 1.0
            assert reps == len(vals)
            assert mean == pytest.approx(scale * vals.mean(), abs=1e-12)
            assert sd == pytest.approx(scale * vals.std(ddof=1), abs=1e-12)


class TestCoverageProfile:
    grid = np.linspace(0.0, 3.0, 100)

    def scenario(self):
        return sx.Scenario(n=10, covariance="ind", seed=0,
                           beta_functions=(step_two,))

    def test_everywhere_covering_reps(self, tmp_path):
        truth = step_two(self.grid)
        paths = [
            write_curves(tmp_path / f"c{r}.csv", self.grid,
                         truth - 0.1, truth + 0.1)
            for r in range(2)
        ]
        prof = coverage_profile(paths, self.scenario())
        np.testing.assert_array_equal(prof["coverage"], 1.0)
        assert prof["n_reps"] == 2

    def test_half_covering_toy(self, tmp_path):
        truth = step_two(self.grid)
        hit = write_curves(tmp_path / "hit.csv", self.grid,
                           truth - 0.1, truth + 0.1)
        miss = write_curves(tmp_path / "miss.csv", self.grid,
                            truth + 0.5, truth + 1.0)
        prof = coverage_profile([hit, miss], self.scenario())
        np.testing.assert_array_equal(prof["coverage"], 0.5)

    def test_mixed_grids_rejected(self, tmp_path):
        truth = step_two(self.grid)
        a = write_curves(tmp_path / "a.csv", self.grid,
                         truth - 0.1, truth + 0.1)
        short = np.linspace(0.0, 3.0, 50)
        b = write_curves(tmp_path / "b.csv", short,
                         step_two(short) - 0.1, step_two(short) + 0.1)
        with pytest.raises(sx.ValidationError):
            coverage_profile([a, b], self.scenario())

    def test_covariate_sets_must_match(self, tmp_path):
        truth = step_two(self.grid)
        a = write_curves(tmp_path / "a.csv", self.grid,
                         truth - 0.1, truth + 0.1, names=("z1",))
        b = write_curves(tmp_path / "b.csv", self.grid,
                         truth - 0.1, truth + 0.1, names=("x1",))
        with pytest.raises(sx.ValidationError):
            coverage_profile([a, b], self.scenario())

    def test_scenario_width_must_match(self, tmp_path):
        truth = step_two(self.grid)
        a = write_curves(tmp_path / "a.csv", self.grid,
                         truth - 0.1, truth + 0.1)
        with pytest.raises(sx.ValidationError):
            coverage_profile([a], sx.Scenario(n=10, covariance="ind", seed=0))


class TestReadCurveTable:
    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "c.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([c for c in CURVE_COLUMNS if c != "ci_lower"])
            writer.writerow(["z1", "0.0", "1.0", "1.0", "1.0", "2.0", "false"])
        with pytest.raises(sx.SchemaError, match="ci_lower"):
            read_curve_table(path)

    def test_flag_values_validated(self, tmp_path):
        path = tmp_path / "c.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CURVE_COLUMNS)
            writer.writerow(["z1", "0.0", "1.0", "1.0", "1.0", "0.0", "2.0",
                             "maybe"])
        with pytest.raises(sx.ValidationError):
            read_curve_table(path)

    def test_round_trip_arrays(self, tmp_path, fitted_sttv_200, scenario_200):
        grid = np.linspace(0.0, 3.0, 7)
        truth = step_two(grid)
        path = write_curves(tmp_path / "c.csv", grid,
                            truth - 0.25, truth + 0.25)
        table = read_curve_table(path)
        assert table.covariate_names == ("z1",)
        np.testing.assert_allclose(table.grid, grid, rtol=0, atol=0)
        np.testing.assert_allclose(table.ci_upper - table.ci_lower, 0.5)

        # a fitted sttv curve set with zero flags and pinched [0, 0]
        # intervals survives the writer and the reader bit for bit
        curves = sx.estimate_curves(fitted_sttv_200, sx.metric_grid(scenario_200))
        assert curves.zero_flags.any()
        assert ((curves.ci_lower == 0.0) & (curves.ci_upper == 0.0)).any()
        path = tmp_path / "fitted.csv"
        path.write_text(curves_csv_text(curves))
        back = read_curve_table(path, level=curves.level)
        assert back.covariate_names == curves.covariate_names
        assert back.level == curves.level
        for field in ("grid", "theta_hat", "beta_hat", "sigma_hat",
                      "ci_lower", "ci_upper", "zero_flags"):
            a, b = getattr(back, field), getattr(curves, field)
            assert a.dtype == b.dtype and a.shape == b.shape, field
            assert a.tobytes() == b.tobytes(), field

        # with scales, every value column reads back divided by its scale
        scales = np.array([0.5, 3.0, 7.0])
        path.write_text(curves_csv_text(curves, scales))
        back = read_curve_table(path)
        for field in ("theta_hat", "beta_hat", "sigma_hat", "ci_lower",
                      "ci_upper"):
            want = getattr(curves, field) / scales[:, None]
            assert getattr(back, field).tobytes() == want.tobytes(), field
        assert back.grid.tobytes() == curves.grid.tobytes()
        assert np.array_equal(back.zero_flags, curves.zero_flags)


class TestRenderers:
    def summary(self, tmp_path):
        path = write_metrics(tmp_path / "m.csv",
                             [one_coef_row(0, 0.01), one_coef_row(1, 0.03)])
        return build_summary([path])

    def test_markdown_carries_cells_and_notes(self, tmp_path):
        text = render_markdown(self.summary(tmp_path))
        assert "| ind | 500 | sttv | aise |" in text
        assert "scaled by 100" in text
        assert "2 per-rep rows" in text

    def test_csv_cells_round_trip(self, tmp_path):
        summary = self.summary(tmp_path)
        lines = render_csv(summary).strip().split("\n")
        assert lines[0] == "covariance,n,variant,metric,coefficient,mean,sd,reps"
        parsed = list(csv.DictReader(lines))
        assert len(parsed) == len(summary.rows)
        for rec, row in zip(parsed, summary.rows):
            assert float(rec["mean"]) == row[5]
            assert float(rec["sd"]) == row[6]
