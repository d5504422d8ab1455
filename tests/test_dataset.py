"""Survival data container, CSV ingestion, and risk sets."""

import numpy as np
import pytest

import sttvcox as sx


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_sorts_and_defaults_tau(self, tmp_path):
        p = write_csv(
            tmp_path / "d.csv",
            "time,event,z1\n2,1,0.5\n1,0,1.5\n3,1,-0.5\n",
        )
        ds = sx.load_csv(p)
        np.testing.assert_allclose(ds.time, [1, 2, 3])
        assert ds.p == 1
        assert ds.tau == 3.0

    def test_truncation_at_tau(self, tmp_path):
        p = write_csv(
            tmp_path / "d.csv",
            "time,event,z1\n2,1,0.5\n1,0,1.5\n3,1,-0.5\n",
        )
        ds = sx.load_csv(p, tau=2.0)
        np.testing.assert_allclose(ds.time, [1, 2, 2])
        # the truncated row becomes censored
        assert list(ds.event) == [False, True, False]

    def test_bad_event_value_names_row(self, tmp_path):
        p = write_csv(
            tmp_path / "d.csv", "time,event,z1\n1,1,0.0\n2,2,1.0\n"
        )
        with pytest.raises(sx.ValidationError, match="row"):
            sx.load_csv(p)

    def test_missing_column(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "time,event\n1,1\n")
        with pytest.raises(sx.SchemaError):
            sx.load_csv(p)

    @pytest.mark.parametrize("header", ["time,event,z,z", "time,event,time,z"])
    def test_repeated_column_named(self, tmp_path, header):
        # a dict reader would keep only the last column of each name
        rows = "1.0,1,0.5,9\n2.0,0,0.6,8\n3.0,1,0.7,7\n"
        p = write_csv(tmp_path / "d.csv", f"{header}\n{rows}")
        repeated = header.split(",")[2]
        with pytest.raises(sx.SchemaError, match=f"repeated column '{repeated}'"):
            sx.load_csv(p)

    @pytest.mark.parametrize("rows, error", [
        ("1.0,1,0.5,99\n2.0,0,0.6\n", "row 1: 4 cells, expected 3"),
        ("1.0,1,0.5\n2.0,0\n", "row 2: 2 cells, expected 3"),
    ], ids=["long_row", "short_row"])
    def test_row_length_must_match_header(self, tmp_path, rows, error):
        p = write_csv(tmp_path / "d.csv", f"time,event,z1\n{rows}")
        with pytest.raises(sx.ValidationError, match=error):
            sx.load_csv(p)

    def test_blank_lines_skipped(self, tmp_path):
        plain = write_csv(tmp_path / "a.csv", "time,event,z1\n2,1,0.5\n1,0,1.5\n")
        spaced = write_csv(tmp_path / "b.csv", "\ntime,event,z1\n\n2,1,0.5\n\n1,0,1.5\n\n")
        a, b = sx.load_csv(plain), sx.load_csv(spaced)
        assert b.covariate_names == a.covariate_names == ("z1",)
        for field in ("time", "event", "covariates"):
            np.testing.assert_array_equal(getattr(b, field), getattr(a, field))

    def test_non_utf8_file_named(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"time,event,z\xe9\n1.0,1,0.5\n")
        with pytest.raises(sx.ValidationError, match="d.csv: not a UTF-8 CSV table"):
            sx.load_csv(p)

    def test_names_with_separators_round_trip(self, tmp_path):
        names = ("a,b", 'say "x"', "c\rd", "e\r\nf")
        ds = sx.make_dataset([1.0, 2.0], [1, 0], [[0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8]],
                             covariate_names=names)
        out = tmp_path / "w.csv"
        sx.save_csv(ds, out)
        assert sx.load_csv(out).covariate_names == names
        # LF line ends: the only CRs are the two inside names
        assert out.read_bytes().count(b"\r") == 2

    def test_negative_time_rejected(self, tmp_path):
        # zero is rejected too: the README asks for positive times
        for t in ("-1", "0"):
            p = write_csv(tmp_path / "d.csv", f"time,event,z1\n{t},1,0.0\n")
            with pytest.raises(sx.ValidationError, match="row 1: nonpositive time"):
                sx.load_csv(p)

    def test_non_numeric_cell(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "time,event,z1\noops,1,0.0\n")
        with pytest.raises(sx.ValidationError):
            sx.load_csv(p)

    def test_round_trip_through_writer(self, tmp_path):
        rng = np.random.default_rng(21)
        ds = sx.make_dataset(
            rng.exponential(2.0, 40),
            rng.random(40) > 0.3,
            rng.normal(size=(40, 3)),
        )
        out = tmp_path / "w.csv"
        sx.save_csv(ds, out)
        back = sx.load_csv(out)
        np.testing.assert_array_equal(back.time, ds.time)
        np.testing.assert_array_equal(back.event, ds.event)
        np.testing.assert_array_equal(back.covariates, ds.covariates)


class TestMakeDataset:
    def test_requires_finite(self):
        with pytest.raises(sx.ValidationError):
            sx.make_dataset([1.0, np.nan], [True, False], [[0.0], [1.0]])
        with pytest.raises(sx.ValidationError):
            sx.make_dataset([1.0, 2.0], [True, False], [[0.0], [np.inf]])

    def test_requires_positive_times(self):
        for t in (-1.0, 0.0):
            with pytest.raises(sx.ValidationError, match="nonpositive time at observation 1"):
                sx.make_dataset([1.0, t], [True, False], [[0.0], [1.0]])

    def test_covariates_are_rows_per_observation(self):
        # a (p, n) matrix is an error, not silently transposed
        with pytest.raises(sx.ValidationError, match="length mismatch"):
            sx.make_dataset([1.0, 2.0, 3.0], [1, 0, 1], [[1.0, 2.0, 3.0], [0.0, 0.0, 1.0]])
        # so are an (n, 2) event array, which holds 2n flags, and a 0-d one
        for event in ([[1, 0], [0, 1], [1, 1]], np.array(1)):
            with pytest.raises(sx.ValidationError, match="length mismatch"):
                sx.make_dataset([1.0, 2.0, 3.0], event, [[0.0], [1.0], [2.0]])
        ds = sx.make_dataset([1.0, 2.0, 3.0], [1, 0, 1], [5.0, 6.0, 7.0])
        assert ds.covariates.shape == (3, 1)

    def test_tau_positive(self):
        with pytest.raises(sx.ValidationError):
            sx.make_dataset([1.0], [True], [[0.0]], tau=0.0)

    def test_sort_index_is_permutation(self):
        ds = sx.make_dataset([3.0, 1.0, 2.0], [1, 0, 1], [[1.0], [2.0], [3.0]])
        assert sorted(ds.sort_index.tolist()) == [0, 1, 2]
        assert np.all(np.diff(ds.time) >= 0)


def risk_set(ds, i):
    """Storage-order indices of every subject still at risk at T_i."""
    return np.arange(ds.risk_start(i), ds.n)


class TestRiskSet:
    def test_earliest_sees_everyone(self):
        ds = sx.make_dataset([1.0, 2.0, 3.0], [1, 1, 1], [[0.0]] * 3)
        assert set(risk_set(ds, 0).tolist()) == {0, 1, 2}

    def test_latest_sees_itself(self):
        ds = sx.make_dataset([1.0, 2.0, 3.0], [1, 1, 1], [[0.0]] * 3)
        assert set(risk_set(ds, 2).tolist()) == {2}

    def test_ties_share_risk_set(self):
        ds = sx.make_dataset([1.0, 1.0, 2.0], [1, 1, 1], [[0.0]] * 3)
        assert set(risk_set(ds, 0).tolist()) == {0, 1, 2}
        assert set(risk_set(ds, 1).tolist()) == {0, 1, 2}

    def test_contains_self_and_shrinks(self):
        rng = np.random.default_rng(2)
        ds = sx.make_dataset(
            rng.exponential(1, 25), rng.random(25) > 0.4, rng.normal(size=(25, 2))
        )
        sizes = []
        for i in range(ds.n):
            rs = risk_set(ds, i).tolist()
            assert i in rs
            sizes.append(len(rs))
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
