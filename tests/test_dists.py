"""Distribution helpers checked against quadrature and hand-computed values."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from idrkit.dists import (bh_adjust, log_add_exp, normal_cdf, normal_log_pdf,
                          normal_quantile, t5_cdf, t5_quantile)
from idrkit.errors import DomainError
from idrkit.mixture import (_component_log_densities, _sum_difference,
                            _ThetaBlock)


def _normal_pdf(z):
    return np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)


class TestNormal:
    def test_cdf_against_quadrature(self):
        for z in (-3.0, -1.0, 0.0, 0.5, 2.4):
            val, _ = integrate.quad(_normal_pdf, -np.inf, z)
            assert normal_cdf(z) == pytest.approx(val, abs=1e-12)

    def test_cdf_known_points(self):
        assert normal_cdf(0.0) == pytest.approx(0.5)
        assert normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)

    def test_quantile_inverts_cdf(self):
        p = np.linspace(0.001, 0.999, 101)
        np.testing.assert_allclose(normal_cdf(normal_quantile(p)), p,
                                   atol=1e-12)

    def test_quantile_domain(self):
        with pytest.raises(DomainError):
            normal_quantile(0.0)
        with pytest.raises(DomainError):
            normal_quantile(1.0)

    def test_log_pdf(self):
        z = np.array([-2.0, 0.0, 1.5])
        np.testing.assert_allclose(np.exp(normal_log_pdf(z)), _normal_pdf(z),
                                   rtol=1e-12)


def _exchangeable_density(z1, z2, mean, variance, rho):
    """The mixture's reproducible component, the exchangeable bivariate
    normal, at the point (z1, z2); its parameters go in as a one-row block,
    which unlike a Theta may hold mean 0 and rho 0."""
    block = _ThetaBlock(np.array([[0.5, mean, variance, rho]]))
    return np.exp(_component_log_densities(_sum_difference((z1, z2)),
                                           block)[1]).reshape(np.shape(z1))


class TestBivariateNormal:
    def test_density_integrates_to_one(self):
        val, err = integrate.dblquad(
            lambda y, x: _exchangeable_density(x, y, 1.0, 2.0, 0.7),
            -9.0, 11.0, lambda x: -9.0, lambda x: 11.0)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_marginal_recovery(self):
        # integrating out one coordinate leaves the 1-D normal density
        mean, variance = 0.5, 1.5
        x = 1.2
        val, _ = integrate.quad(
            lambda y: _exchangeable_density(x, y, mean, variance, 0.4),
            -10.0, 11.0)
        sd = np.sqrt(variance)
        expect = _normal_pdf((x - mean) / sd) / sd
        assert val == pytest.approx(expect, rel=1e-9)

    def test_independence_factorizes(self):
        z1, z2 = 0.3, -1.1
        assert _exchangeable_density(z1, z2, 0.0, 1.0, 0.0) == pytest.approx(
            _normal_pdf(z1) * _normal_pdf(z2), rel=1e-12)

    def test_log_density_matches_density(self):
        z1 = np.array([1.0, 2.5])
        z2 = np.array([2.0, 1.5])
        cov = 0.5 * np.array([[1.0, 0.9], [0.9, 1.0]])
        np.testing.assert_allclose(
            _exchangeable_density(z1, z2, 2.0, 0.5, 0.9),
            stats.multivariate_normal([2.0, 2.0], cov).pdf(
                np.column_stack([z1, z2])), rtol=1e-12)


class TestLogAddExp:
    """log_add_exp against np.logaddexp.  Both compute max(a, b) +
    log1p(exp(-|a - b|)), through different exp and log1p, so they may
    differ in the last bits: by at most ULPS ulp of the largest of
    |max(a, b)|, |result| and log 2, the bound of the log1p term."""

    ULPS = 4

    def _check(self, a, b):
        ref = np.logaddexp(a, b)
        scale = np.maximum(np.maximum(np.abs(np.maximum(a, b)), np.abs(ref)),
                           np.log(2.0))
        assert np.all(np.abs(log_add_exp(a, b) - ref)
                      <= self.ULPS * np.spacing(scale))

    def test_equal_inputs(self):
        a = np.random.default_rng(0).uniform(-50.0, 50.0, 10_001)
        self._check(a, a)
        self._check(np.zeros(3), np.zeros(3))

    def test_one_term_minus_inf(self):
        b = np.random.default_rng(1).normal(0.0, 30.0, 1_001)
        a = np.full_like(b, -np.inf)
        assert np.array_equal(log_add_exp(a, b), b)
        assert np.array_equal(log_add_exp(b, a), b)

    def test_gaps_over_40(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(-700.0, 700.0, 10_001)
        b = a - rng.uniform(40.0, 1000.0, a.size)
        self._check(a, b)
        self._check(b, a)

    def test_random_pairs(self):
        rng = np.random.default_rng(3)
        for scale in (1e-3, 1.0, 10.0, 100.0):
            a = rng.uniform(-50.0, 50.0, 100_001)
            b = a + scale * rng.normal(size=a.size)
            self._check(a, b)

    def test_infinities_and_nan(self):
        a = np.array([-np.inf, np.inf, np.nan, 1.0, -np.inf])
        b = np.array([-np.inf, np.inf, 1.0, np.nan, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = log_add_exp(a, b)
        np.testing.assert_array_equal(out, [-np.inf, np.inf, np.nan, np.nan,
                                            np.inf])


class TestT5:
    def test_cdf_against_quadrature(self):
        # Student t with 5 degrees of freedom
        from scipy.special import gamma

        nu = 5.0
        c = gamma(3.0) / (np.sqrt(nu * np.pi) * gamma(2.5))

        def pdf(x):
            return c * (1.0 + x * x / nu) ** (-3.0)

        for x in (-2.0, 0.0, 1.3):
            val, _ = integrate.quad(pdf, -np.inf, x)
            assert t5_cdf(x) == pytest.approx(val, abs=1e-10)

    def test_quantile_roundtrip(self):
        p = np.linspace(0.01, 0.99, 50)
        np.testing.assert_allclose(t5_cdf(t5_quantile(p)), p, atol=1e-10)

    def test_symmetry(self):
        assert t5_cdf(0.0) == pytest.approx(0.5)
        assert t5_cdf(-1.7) == pytest.approx(1.0 - t5_cdf(1.7), abs=1e-12)


class TestBhAdjust:
    def test_hand_computed(self):
        # adjusted = min over j>=i of p_(j) * n / j, mapped back
        p = np.array([0.01, 0.04, 0.03, 0.005])
        # sorted: 0.005, 0.01, 0.03, 0.04 -> *4/k: 0.02, 0.02, 0.04, 0.04
        expect = np.array([0.02, 0.04, 0.04, 0.02])
        np.testing.assert_allclose(bh_adjust(p), expect, rtol=1e-12)

    def test_single_value(self):
        np.testing.assert_allclose(bh_adjust([0.2]), [0.2])

    def test_monotone_in_sorted_order(self):
        rng = np.random.default_rng(7)
        p = rng.uniform(size=200)
        adj = bh_adjust(p)
        order = np.argsort(p)
        assert np.all(np.diff(adj[order]) >= -1e-15)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                    max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_bounds_and_dominance(self, raw):
        p = np.array(raw)
        adj = bh_adjust(p)
        assert np.all(adj >= p - 1e-15)
        assert np.all(adj <= 1.0 + 1e-15)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            bh_adjust([0.5, 1.5])
        with pytest.raises(DomainError):
            bh_adjust([[0.1, 0.2]])
