"""Pointwise variance, limiting distribution, and sparse intervals."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sttvcox as sx
from oracles import erfc_ref, mc_threshold_cdf, normal_cdf_ref
from sttvcox import inference


class TestNormalFunctions:
    def test_cdf_at_zero(self):
        assert sx.normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_quantile_975(self):
        assert sx.normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_round_trip(self):
        for p in np.linspace(1e-6, 1 - 1e-6, 101):
            assert sx.normal_cdf(sx.normal_quantile(p)) == pytest.approx(
                p, abs=1e-9
            )

    def test_quantile_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(sx.ValidationError):
                sx.normal_quantile(bad)

    def test_cdf_known_values(self):
        # classic table entries
        assert sx.normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-12)
        assert sx.normal_cdf(-2.0) == pytest.approx(0.02275013194817921, abs=1e-12)


def assert_same_bits(ours, ref):
    """Equal shapes, NaN where ref is NaN, and the same bytes everywhere else."""
    ours, ref = np.asarray(ours), np.asarray(ref)
    assert ours.shape == ref.shape
    nan = np.isnan(ref)
    np.testing.assert_array_equal(np.isnan(ours), nan)
    mismatch = ours[~nan].view(np.int64) != ref[~nan].view(np.int64)
    assert not mismatch.any(), (
        f"{mismatch.sum()} of {mismatch.size} differ, first at non-NaN positions "
        f"{np.flatnonzero(mismatch)[:5]}"
    )


def neighbours(points, ulps=4):
    """Each point and its ``ulps`` nearest floats on either side."""
    out = []
    for v in points:
        lo = hi = float(v)
        out.append(lo)
        for _ in range(ulps):
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
            out += [lo, hi]
    return np.array(out)


class TestNormalCdfBits:
    """normal_cdf equals 0.5 * scipy.special.erfc(-x / sqrt 2) bit for bit."""

    # erfc's branch edges |x| = 1, 8 and sqrt(MAXLOG), and both signed zeros
    EDGES = [s * v for v in (1.0, 8.0, math.sqrt(inference._MAXLOG), 0.0)
             for s in (1.0, -1.0)]
    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.3e154, -1.3e154, 1.4e154,
               -1.4e154, 1e300, -1e300, np.finfo(float).max, -np.finfo(float).max,
               5e-324, -5e-324]

    def test_seeded_draws(self):
        rng = np.random.default_rng(20260)
        x = np.concatenate([rng.normal(0.0, 1.0, 400_000), rng.normal(0.0, 4.0, 300_000),
                            rng.uniform(-30.0, 30.0, 300_003)])
        assert_same_bits(sx.normal_cdf(x), normal_cdf_ref(x))

    def test_erfc_branch_edges(self):
        # the edges of erfc's own argument, and of normal_cdf's (x = -sqrt 2 * edge)
        x = neighbours(self.EDGES + self.SPECIAL)
        assert_same_bits(inference._erfc(x), erfc_ref(x))
        x = neighbours([-math.sqrt(2.0) * e for e in self.EDGES], ulps=8)
        args = -x / math.sqrt(2.0)
        for edge in (1.0, 8.0, math.sqrt(inference._MAXLOG)):
            assert (np.abs(args) < edge).any() and (np.abs(args) >= edge).any()
        assert_same_bits(sx.normal_cdf(x), normal_cdf_ref(x))

    def test_special_values_warn_nothing(self):
        x = np.array(self.SPECIAL)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sx.normal_cdf(x)
        assert_same_bits(out, normal_cdf_ref(x))
        assert np.isnan(out[4]) and out[2] == 1.0 and out[3] == 0.0
        assert list(out[5:9]) == [1.0, 0.0, 1.0, 0.0]

    def test_shapes(self):
        out = sx.normal_cdf(0.3)
        assert type(out) is float and out == float(normal_cdf_ref(0.3))
        assert type(sx.normal_cdf(np.float64(-9.0))) is float
        for shape in ((0,), (2, 0), (3, 4)):
            x = np.linspace(-5.0, 5.0, math.prod(shape)).reshape(shape)
            out = sx.normal_cdf(x)
            assert isinstance(out, np.ndarray)
            assert_same_bits(out, normal_cdf_ref(x))

    def test_import_loads_no_scipy_and_no_process_pool(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(sx.__file__)))
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import sttvcox; "
                "print(sorted(m for m in sys.modules if m == 'scipy' "
                "or m.startswith('scipy.') or m == 'concurrent.futures.process'))")
        out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout.strip() == "[]"


class TestWaldCi:
    def test_standard_interval(self):
        iv = sx.wald_ci(0.0, 1.0, 0.05)
        assert iv.lower == pytest.approx(-1.959964, abs=1e-5)
        assert iv.upper == pytest.approx(1.959964, abs=1e-5)

    def test_width_scales_with_sigma(self):
        w1 = sx.wald_ci(0.3, 1.0, 0.05)
        w2 = sx.wald_ci(0.3, 2.0, 0.05)
        assert (w2.upper - w2.lower) == pytest.approx(
            2 * (w1.upper - w1.lower), rel=1e-12
        )

    def test_half_level(self):
        iv = sx.wald_ci(1.0, 1.0, 0.5)
        assert iv.upper - 1.0 == pytest.approx(0.674490, abs=1e-5)


class TestLimitingCdf:
    def test_tail_limits(self):
        assert sx.limiting_cdf(1e9, 0.3, 1.0, 0.5) == pytest.approx(1.0)
        assert sx.limiting_cdf(-1e9, 0.3, 1.0, 0.5) == pytest.approx(0.0)

    def test_jump_at_zero_centered(self):
        alpha, sigma = 1.0, 0.4
        left = sx.limiting_cdf(-1e-12, 0.0, alpha, sigma)
        at = sx.limiting_cdf(0.0, 0.0, alpha, sigma)
        assert left == pytest.approx(sx.normal_cdf(-alpha / sigma), abs=1e-9)
        assert at == pytest.approx(sx.normal_cdf(alpha / sigma), abs=1e-9)

    def test_point_mass_identity(self):
        # jump height equals the dead-zone probability of the normal
        for theta, alpha, sigma in [(0.0, 1.0, 0.5), (0.7, 0.4, 1.2)]:
            jump = sx.limiting_cdf(0.0, theta, alpha, sigma) - sx.limiting_cdf(
                -1e-300, theta, alpha, sigma
            )
            want = sx.normal_cdf((alpha - theta) / sigma) - sx.normal_cdf(
                (-alpha - theta) / sigma
            )
            assert jump == pytest.approx(want, abs=1e-12)

    def test_monotone_right_continuous(self):
        xs = np.linspace(-4, 4, 4001)
        vals = sx.limiting_cdf(xs, 0.4, 0.8, 0.6)
        assert np.all(np.diff(vals) >= -1e-15)
        # right continuity at the jump
        assert sx.limiting_cdf(0.0, 0.4, 0.8, 0.6) == pytest.approx(
            sx.limiting_cdf(1e-13, 0.4, 0.8, 0.6), abs=1e-9
        )

    def test_matches_monte_carlo(self):
        xs = np.array([-1.0, 0.0, 0.5, 2.0])
        emp = mc_threshold_cdf(0.8, 1.0, 1.0, xs, 10**6, seed=42)
        exact = np.array([sx.limiting_cdf(x, 0.8, 1.0, 1.0) for x in xs])
        assert np.max(np.abs(emp - exact)) < 0.005


class TestSparseCi:
    def test_deep_dead_zone_pinches(self):
        iv = sx.sparse_ci(0.0, 1.0, 0.1, 0.05)
        assert (iv.lower, iv.upper) == (0.0, 0.0)

    def test_far_active_is_symmetric_wald(self):
        iv = sx.sparse_ci(5.0, 1.0, 0.1, 0.05)
        assert iv.lower == pytest.approx(4.0 - 0.1959964, abs=1e-6)
        assert iv.upper == pytest.approx(4.0 + 0.1959964, abs=1e-6)

    def test_one_sided_near_boundary(self):
        iv = sx.sparse_ci(1.1, 1.0, 0.5, 0.05)
        assert iv.lower == 0.0
        assert iv.upper > sx.soft_threshold(1.1, 1.0)

    def test_negative_mirror(self):
        pos = sx.sparse_ci(1.1, 1.0, 0.5, 0.05)
        neg = sx.sparse_ci(-1.1, 1.0, 0.5, 0.05)
        assert neg.upper == pytest.approx(-pos.lower, abs=1e-12)
        assert neg.lower == pytest.approx(-pos.upper, abs=1e-12)

    @given(
        theta=st.floats(-6, 6),
        alpha=st.floats(0.05, 3.0),
        sigma=st.floats(0.01, 2.0),
        xi=st.floats(0.01, 0.4),
    )
    def test_contains_point_estimate(self, theta, alpha, sigma, xi):
        beta = sx.soft_threshold(theta, alpha)
        iv = sx.sparse_ci(theta, alpha, sigma, xi)
        assert iv.lower <= beta + 1e-12
        assert beta <= iv.upper + 1e-12

    def test_sigma_must_be_positive(self):
        with pytest.raises(sx.ValidationError):
            sx.sparse_ci(1.0, 1.0, 0.0, 0.05)

    @pytest.mark.parametrize("theta_factor", [0.0, 0.5, 2.0, 4.0])
    def test_simulation_coverage(self, theta_factor):
        # sigma keeps the active points several sigma past the threshold;
        # closer in, mild undercoverage is expected and not asserted here
        alpha, sigma, xi = 1.0, 0.2, 0.05
        theta = theta_factor * alpha
        beta = sx.soft_threshold(theta, alpha)
        rng = np.random.default_rng(1234)
        draws = rng.normal(theta, sigma, size=20000)
        iv = sx.sparse_ci(draws, alpha, sigma, xi)
        rate = float(np.mean((iv.lower - 1e-12 <= beta) & (beta <= iv.upper + 1e-12)))
        if theta_factor <= 1.0:
            # truth is 0 and the interval is [0, 0] or one sided there
            assert rate >= 0.95 - 0.01
        else:
            assert rate == pytest.approx(0.95, abs=0.015)


def sigma_nj(model, j, t):
    """Pointwise standard error of the unthresholded curve level at t."""
    return float(np.sqrt(sx.curve_variance(model, j, [t])[0]))


class TestSigmaNj:
    def test_selector_vector_at_endpoint(self):
        # with one segment, B(0) = e_1, so sigma^2 picks a diagonal entry
        # of the sandwich (raw-sum bookkeeping, no extra n factor)
        sc = sx.Scenario(n=120, covariance="ind", seed=3)
        ds = sx.generate(sc)
        m = sx.fit(ds, sx.FitConfig(K=1, variant="sttv", seed=3))
        q = m.basis.q
        for j in range(3):
            want = np.sqrt(m.sandwich[j * q, j * q])
            assert sigma_nj(m, j, 0.0) == pytest.approx(want, rel=1e-10)

    def test_continuity_on_fine_grid(self, fitted_sttv_200):
        grid = np.linspace(0.0, 3.0, 301)
        vals = np.array([sigma_nj(fitted_sttv_200, 0, t) for t in grid])
        steps = np.abs(np.diff(vals))
        scale = np.max(vals) * 10.0 * (grid[1] - grid[0])
        assert np.max(steps) < scale

    def test_matches_curve_variance(self, fitted_sttv_200):
        grid = np.linspace(0.2, 2.8, 11)
        var = sx.curve_variance(fitted_sttv_200, 1, grid)
        pt = np.array([sigma_nj(fitted_sttv_200, 1, t) for t in grid])
        np.testing.assert_allclose(np.sqrt(var), pt, rtol=1e-12)
