"""Soft-thresholding operator, smooth surrogate, and derivatives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sttvcox as sx
from oracles import (
    smooth_threshold_arrays_ref,
    smooth_threshold_d1_arrays_ref,
    smooth_threshold_d2_arrays_ref,
    smooth_threshold_ref,
    soft_threshold_ref,
)
from sttvcox.threshold import _effect

# pinned to the floats of every OpenBLAS kernel (the CI core-type loop)
pytestmark = pytest.mark.bitwise

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
alphas = st.floats(min_value=1e-6, max_value=1e3, allow_nan=False)


class TestSoftThreshold:
    def test_shrinks_above(self):
        assert sx.soft_threshold(3.0, 1.0) == 2.0

    def test_dead_zone(self):
        assert sx.soft_threshold(0.5, 1.0) == 0.0

    def test_shrinks_below(self):
        assert sx.soft_threshold(-3.0, 1.0) == -2.0

    def test_alpha_must_be_positive(self):
        with pytest.raises(sx.ValidationError):
            sx.soft_threshold(1.0, 0.0)
        with pytest.raises(sx.ValidationError):
            sx.soft_threshold(1.0, -2.0)

    @given(a=finite, b=finite, alpha=alphas)
    def test_lipschitz(self, a, b, alpha):
        fa = sx.soft_threshold(a, alpha)
        fb = sx.soft_threshold(b, alpha)
        assert abs(fa - fb) <= abs(a - b) + 1e-12 * max(1.0, abs(a - b))

    @given(theta=finite, alpha=alphas)
    def test_zero_iff_inside_dead_zone(self, theta, alpha):
        value = sx.soft_threshold(theta, alpha)
        assert (value == 0.0) == (abs(theta) <= alpha)

    @given(theta=finite, alpha=alphas)
    def test_odd_symmetry(self, theta, alpha):
        assert sx.soft_threshold(-theta, alpha) == -sx.soft_threshold(theta, alpha)

    @given(theta=finite, alpha=alphas)
    def test_matches_reference(self, theta, alpha):
        assert sx.soft_threshold(theta, alpha) == soft_threshold_ref(theta, alpha)


class TestSmoothThreshold:
    def test_zero_at_origin(self):
        assert sx.smooth_threshold(0.0, 1.0, 0.01) == 0.0

    def test_close_to_exact_outside(self):
        # |h - zeta| stays within a small multiple of eta
        value = sx.smooth_threshold(5.0, 1.0, 0.001)
        assert abs(value - 4.0) <= 0.0011

    def test_eta_zero_is_exact(self):
        for theta in (-2.0, -1.0, 0.0, 1.0, 2.0):
            assert sx.smooth_threshold(theta, 1.0, 0.0) == sx.soft_threshold(
                theta, 1.0
            )

    def test_matches_reference_formula(self):
        rng = np.random.default_rng(3)
        for theta in rng.uniform(-5, 5, size=200):
            got = sx.smooth_threshold(theta, 1.3, 0.01)
            want = smooth_threshold_ref(theta, 1.3, 0.01)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("eta", [1e-2, 1e-3, 1e-4])
    def test_uniform_approximation(self, eta):
        grid = np.linspace(-10.0, 10.0, 20001)
        h = sx.smooth_threshold(grid, 2.0, eta)
        z = sx.soft_threshold(grid, 2.0)
        assert np.max(np.abs(h - z)) <= 1.1 * eta

    @given(theta=finite, alpha=alphas)
    def test_odd_symmetry(self, theta, alpha):
        left = sx.smooth_threshold(-theta, alpha, 0.01)
        right = -sx.smooth_threshold(theta, alpha, 0.01)
        assert left == pytest.approx(right, rel=1e-12, abs=1e-300)

    def test_monotone_in_theta(self):
        grid = np.linspace(-20.0, 20.0, 40001)
        h = sx.smooth_threshold(grid, 1.0, 1e-3)
        assert np.min(np.diff(h)) >= -1e-12

    def test_no_overflow_far_field(self):
        # the clamp keeps huge arguments finite and equal to the exact zeta
        for theta in (1e12, -1e12, 1e300, -1e300):
            value = sx.smooth_threshold(theta, 1.0, 1e-3)
            assert np.isfinite(value)
            assert value == pytest.approx(sx.soft_threshold(theta, 1.0), rel=1e-12)


class TestDerivatives:
    def test_eta_zero_rejected(self):
        with pytest.raises(sx.ValidationError):
            sx.smooth_threshold_d1(1.0, 1.0, 0.0)
        with pytest.raises(sx.ValidationError):
            sx.smooth_threshold_d2(1.0, 1.0, 0.0)

    def test_d1_matches_finite_difference_at_zero(self):
        h = 1e-6
        fd = (
            sx.smooth_threshold(h, 1.0, 0.001) - sx.smooth_threshold(-h, 1.0, 0.001)
        ) / (2 * h)
        got = sx.smooth_threshold_d1(0.0, 1.0, 0.001)
        assert got == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_d1_unit_slope_far_out(self):
        assert sx.smooth_threshold_d1(10.0, 1.0, 0.001) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.5])
    def test_d1_even(self, theta):
        a = sx.smooth_threshold_d1(theta, 1.0, 0.01)
        b = sx.smooth_threshold_d1(-theta, 1.0, 0.01)
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("theta", [-2.0, -0.5, 0.0, 0.5, 2.0])
    def test_d2_matches_finite_difference(self, theta):
        eta = 0.01
        h = 1e-4
        fd = (
            sx.smooth_threshold(theta + h, 1.0, eta)
            - 2 * sx.smooth_threshold(theta, 1.0, eta)
            + sx.smooth_threshold(theta - h, 1.0, eta)
        ) / h**2
        got = sx.smooth_threshold_d2(theta, 1.0, eta)
        assert got == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_d2_zero_at_origin(self):
        assert sx.smooth_threshold_d2(0.0, 1.0, 0.01) == 0.0

    def test_d2_vanishes_far_out(self):
        assert abs(sx.smooth_threshold_d2(100.0, 1.0, 0.001)) < 1e-6

    def test_d1_matches_fd_on_random_grid(self):
        rng = np.random.default_rng(7)
        thetas = rng.uniform(-4, 4, size=100)
        h = 1e-6
        for theta in thetas:
            fd = (
                sx.smooth_threshold(theta + h, 1.5, 0.01)
                - sx.smooth_threshold(theta - h, 1.5, 0.01)
            ) / (2 * h)
            got = sx.smooth_threshold_d1(theta, 1.5, 0.01)
            assert got == pytest.approx(fd, rel=1e-5, abs=1e-8)


# h, h', h'' as computed before they shared one kernel
REFS = (smooth_threshold_arrays_ref, smooth_threshold_d1_arrays_ref,
        smooth_threshold_d2_arrays_ref)
VIEWS = (sx.smooth_threshold, sx.smooth_threshold_d1, sx.smooth_threshold_d2)
ETAS = (1e-2, 1e-3, 1e-8, 1e-12)


def assert_same_bits(got, want):
    """Same type, dtype, shape and bytes, so a sign flip of zero counts too."""
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_matches_refs(theta, alpha, eta):
    """_effect at orders 0, 1, 2 and the public views equal the references bit for bit."""
    th, al = np.asarray(theta, dtype=float), np.asarray(alpha, dtype=float)
    top = 2 if eta > 0 else 0
    for order in range(top + 1):
        out = _effect(th, al, eta, order)
        assert len(out) == 3 and all(x is None for x in out[order + 1:])
        for k in range(order + 1):
            assert_same_bits(out[k], np.asarray(REFS[k](th, al, eta)))
    for k in range(top + 1):
        assert_same_bits(VIEWS[k](theta, alpha, eta), REFS[k](theta, alpha, eta))
    if eta == 0:
        assert_same_bits(sx.soft_threshold(theta, alpha), REFS[0](theta, alpha, 0.0))


class TestEffectKernel:
    """The one kernel behind the surrogate, bit for bit against the references."""

    @pytest.mark.parametrize("eta", ETAS + (0.0,))
    def test_far_field_both_sides(self, eta):
        theta = np.array([1e9, -1e9, 1e12, -1e12, 1e300, -1e300, 5e7, -5e7])
        assert_matches_refs(theta, 0.5, eta)
        assert_matches_refs(theta, np.linspace(1e-6, 1e3, theta.size), eta)

    @pytest.mark.parametrize("eta", ETAS + (0.0,))
    def test_at_and_next_to_both_kinks(self, eta):
        for alpha in (1e-6, 0.3, 1.0, 7.5, 1e3):
            kinks = np.array([alpha, -alpha])
            theta = np.concatenate(
                [kinks, np.nextafter(kinks, np.inf), np.nextafter(kinks, -np.inf)]
            )
            assert_matches_refs(theta, alpha, eta)
            for value in theta:
                assert_matches_refs(float(value), alpha, eta)

    @pytest.mark.parametrize("eta", ETAS + (0.0,))
    def test_signed_zeros(self, eta):
        theta = np.array([0.0, -0.0])
        assert_matches_refs(theta, 1.0, eta)
        assert_matches_refs(-0.0, 1.0, eta)
        assert_matches_refs(0.0, np.array([0.2, 3.0]), eta)

    @pytest.mark.parametrize("eta", ETAS + (0.0,))
    def test_dense_grid_and_scalars(self, eta):
        assert_matches_refs(np.linspace(-10.0, 10.0, 20007), 2.0, eta)
        for theta in (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0):
            assert_matches_refs(theta, 2.0, eta)

    @pytest.mark.parametrize("eta", ETAS)
    def test_far_and_near_entries(self, eta):
        # the far-field selects run only when some entry is far; with none
        # the formula arrays come back as they are, of the same type
        alpha = np.array([0.5, 1.0, 2.0])
        near = np.array([alpha - 3.0 * eta, -alpha + 0.5 * eta, alpha + 1e7 * eta])
        mixed = near.copy()
        mixed[0, 1], mixed[2, 2] = 1e12, -1e300

        def far(theta, alpha):
            with np.errstate(over="ignore"):
                return (np.abs(theta - alpha) / eta > 1e8) & (np.abs(theta + alpha) / eta > 1e8)

        assert not far(near, alpha).any() and far(mixed, alpha).sum() == 2
        for theta in (near, mixed):
            assert_matches_refs(theta, alpha, eta)
            assert_matches_refs(theta[:, 1], 1.0, eta)
        for theta in (*near[:, 0], 1e12, -1e300, 0.0, -0.0):
            for order in (0, 1, 2):
                out = _effect(np.asarray(theta), np.asarray(0.5), eta, order)
                assert all(type(x) is np.ndarray and x.ndim == 0 for x in out[:order + 1])
            assert_matches_refs(theta, 0.5, eta)

    @pytest.mark.parametrize("eta", ETAS)
    def test_clamp_at_its_edges_and_past_finite_values(self, eta):
        # u and v are clamped to +-1e8 by maximum then minimum, np.clip's
        # arithmetic: infinities, NaN, signed zeros, and theta at and one
        # ulp around 1e8 eta from 0 and from either kink
        alpha = 0.5
        edge = np.array([1e8 * eta, alpha + 1e8 * eta, alpha - 1e8 * eta])
        edge = np.concatenate([edge, -edge])
        theta = np.concatenate([[np.inf, -np.inf, np.nan, 0.0, -0.0], edge,
                                np.nextafter(edge, np.inf), np.nextafter(edge, -np.inf)])
        assert_matches_refs(theta, alpha, eta)
        for value in theta:
            assert_matches_refs(float(value), alpha, eta)
        with np.errstate(over="ignore", invalid="ignore"):
            for u in ((theta - alpha) / eta, (theta + alpha) / eta):
                got = np.minimum(np.maximum(u, -1e8), 1e8)
                assert_same_bits(got, np.clip(u, -1e8, 1e8))
                for x in u:
                    assert_same_bits(np.minimum(np.maximum(x, -1e8), 1e8),
                                     np.clip(x, -1e8, 1e8))

    def test_exact_operator_at_eta_zero(self):
        theta = np.array([-3.0, -1.0, -0.0, 0.0, 0.5, 1.0, 4.0])
        h, h1, h2 = _effect(theta, 1.0, 0.0, order=0)
        assert h1 is None and h2 is None
        assert_same_bits(h, np.asarray(sx.soft_threshold(theta, 1.0)))

    def test_no_alpha_is_the_identity(self):
        theta = np.array([[-2.5, -0.0, 0.0], [1e300, 3.0, -1e-300]])
        assert _effect(theta, None, 1e-3)[0] is theta
        for eta in (0.0, 1e-3):
            h, h1, h2 = _effect(theta, None, eta, order=2)
            assert h is theta
            assert_same_bits(h1, np.ones_like(theta))
            assert_same_bits(h2, np.zeros_like(theta))
        assert _effect(theta, None, 1e-3, order=1)[2] is None

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.floats(-1e12, 1e12, allow_nan=False),
                st.sampled_from([0.0, -0.0, 1e300, -1e300, 1.0, -1.0]),
            ),
            min_size=1, max_size=24,
        ),
        width=st.integers(1, 3),
        alphas=st.lists(st.floats(1e-6, 1e3), min_size=3, max_size=3),
        eta=st.sampled_from((0.0,) + ETAS + (1.0,)),
    )
    def test_random_arrays(self, values, width, alphas, eta):
        theta = np.array(values)
        assert_matches_refs(theta, alphas[0], eta)
        # the scan's layout: events by covariates, one alpha per column
        rows = theta[: theta.size - theta.size % width].reshape(-1, width)
        assert_matches_refs(rows, np.array(alphas[:width]), eta)
