"""Clamped B-spline construction and evaluation."""

import numpy as np
import pytest

import sttvcox as sx
from oracles import naive_basis_vector, scipy_basis_matrix


class TestMakeBasis:
    def test_single_segment_is_bernstein(self):
        b = sx.make_basis(1, 3, 1.0)
        assert b.q == 4
        # no interior knots: the knot vector is 0 and 1 repeated
        assert set(np.unique(b.knots)) == {0.0, 1.0}

    def test_equal_spacing(self):
        b = sx.make_basis(5, 3, 3.0)
        assert b.q == 8
        interior = b.knots[(b.knots > 0) & (b.knots < 3)]
        np.testing.assert_allclose(interior, [0.6, 1.2, 1.8, 2.4])

    def test_rejects_bad_arguments(self):
        with pytest.raises(sx.ValidationError):
            sx.make_basis(0, 3, 1.0)
        with pytest.raises(sx.ValidationError):
            sx.make_basis(3, 0, 1.0)
        with pytest.raises(sx.ValidationError):
            sx.make_basis(3, 3, 0.0)

    def test_clamped_multiplicity(self):
        b = sx.make_basis(4, 3, 2.0)
        assert np.sum(b.knots == 0.0) == 4
        assert np.sum(b.knots == 2.0) == 4


class TestEvalBasis:
    def test_left_endpoint(self):
        b = sx.make_basis(1, 3, 1.0)
        np.testing.assert_allclose(sx.eval_basis_grid(b, [0.0])[0], [1, 0, 0, 0])

    def test_right_endpoint_convention(self):
        b = sx.make_basis(1, 3, 1.0)
        np.testing.assert_allclose(sx.eval_basis_grid(b, [1.0])[0], [0, 0, 0, 1])

    def test_partition_of_unity_random(self):
        rng = np.random.default_rng(5)
        b = sx.make_basis(5, 3, 3.0)
        for t in rng.uniform(0, 3, size=200):
            assert abs(sx.eval_basis_grid(b, [t])[0].sum() - 1.0) < 1e-12

    def test_nonnegative(self):
        b = sx.make_basis(6, 3, 2.5)
        for t in np.linspace(0, 2.5, 501):
            assert np.all(sx.eval_basis_grid(b, [t])[0] >= 0)

    def test_matches_naive_recursion(self):
        b = sx.make_basis(5, 3, 3.0)
        got = sx.eval_basis_grid(b, [1.0])[0]
        want = naive_basis_vector(b.knots, 3, b.q, 1.0)
        np.testing.assert_allclose(got, want, atol=1e-13)

    def test_matches_naive_recursion_many_points(self):
        b = sx.make_basis(4, 2, 2.0)
        rng = np.random.default_rng(9)
        for t in rng.uniform(0, 2.0 - 1e-9, size=50):
            want = naive_basis_vector(b.knots, 2, b.q, t)
            np.testing.assert_allclose(sx.eval_basis_grid(b, [t])[0], want, atol=1e-13)

    def test_matches_scipy(self):
        grid = np.linspace(0, 3, 97)
        mine = sx.eval_basis_grid(sx.make_basis(5, 3, 3.0), grid)
        theirs = scipy_basis_matrix(grid, 5, 3, 3.0)
        np.testing.assert_allclose(mine, theirs, atol=1e-10)

    def test_local_support(self):
        # each basis function vanishes outside d+2 consecutive knots
        b = sx.make_basis(6, 3, 3.0)
        grid = np.linspace(0, 3, 1201)
        values = sx.eval_basis_grid(b, grid)
        for k in range(b.q):
            lo, hi = b.knots[k], b.knots[k + b.degree + 1]
            outside = (grid < lo - 1e-12) | (grid > hi + 1e-12)
            assert np.all(np.abs(values[outside, k]) < 1e-14)


class TestEvalBasisGrid:
    def test_empty_grid(self):
        b = sx.make_basis(3, 3, 1.0)
        out = sx.eval_basis_grid(b, np.array([]))
        assert out.shape == (0, b.q)

    def test_endpoint_rows(self):
        b = sx.make_basis(1, 3, 1.0)
        out = sx.eval_basis_grid(b, np.array([0.0, 1.0]))
        np.testing.assert_allclose(out[0], [1, 0, 0, 0])
        np.testing.assert_allclose(out[1], [0, 0, 0, 1])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(13)
        b = sx.make_basis(7, 3, 3.0)
        grid = np.sort(rng.uniform(0, 3, size=64))
        out = sx.eval_basis_grid(b, grid)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_domain_error(self):
        b = sx.make_basis(3, 3, 1.0)
        with pytest.raises(sx.ValidationError):
            sx.eval_basis_grid(b, [-0.01])
        with pytest.raises(sx.ValidationError):
            sx.eval_basis_grid(b, [1.01])


class TestPolynomialReproduction:
    @pytest.mark.parametrize("deg", [0, 1, 2, 3])
    def test_degree_le_d_reproduced(self, deg):
        b = sx.make_basis(5, 3, 3.0)
        x = np.linspace(0, 3, b.q + 10)
        target = x**deg
        design = sx.eval_basis_grid(b, x)
        coef, *_ = np.linalg.lstsq(design, target, rcond=None)
        dense = np.linspace(0, 3, 301)
        approx = sx.eval_basis_grid(b, dense) @ coef
        assert np.max(np.abs(approx - dense**deg)) < 1e-9
