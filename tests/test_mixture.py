"""Copula mixture: marginal transforms, inner EM, and the alternating fit."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idrkit.dists import normal_cdf
from idrkit.errors import DegenerateComponent, DomainError
from idrkit.mixture import (FitConfig, PseudoData, Theta,
                            compute_pseudo_data, copula_log_likelihood,
                            em_inner, fit, log_likelihood,
                            marginal_mixture_cdf, marginal_mixture_quantile)
from idrkit.ranking import ScoredPairSet, rank_scores

REF = Theta(pi1=0.65, mu1=2.5, sigma1_sq=1.0, rho1=0.84)

theta_strategy = st.builds(
    Theta,
    pi1=st.floats(min_value=0.05, max_value=0.95),
    mu1=st.floats(min_value=0.5, max_value=4.0),
    sigma1_sq=st.floats(min_value=0.3, max_value=3.0),
    rho1=st.floats(min_value=0.05, max_value=0.95),
)


def _latent_pairs(theta, n, seed=0):
    """Draw directly from the two-component latent model."""
    rng = np.random.default_rng(seed)
    k = rng.random(n) < theta.pi1
    cov1 = theta.sigma1_sq * np.array([[1.0, theta.rho1], [theta.rho1, 1.0]])
    z = rng.multivariate_normal([0.0, 0.0], np.eye(2), size=n)
    z1 = theta.mu1 + rng.multivariate_normal([0.0, 0.0], cov1, size=n)
    z[k] = z1[k]
    return PseudoData(z1=z[:, 0], z2=z[:, 1])


class TestTheta:
    def test_validation(self):
        for bad in (dict(pi1=0.0), dict(pi1=1.0), dict(mu1=-1.0),
                    dict(sigma1_sq=0.0), dict(rho1=-0.1), dict(rho1=1.5)):
            kwargs = dict(pi1=0.5, mu1=2.0, sigma1_sq=1.0, rho1=0.5)
            kwargs.update(bad)
            with pytest.raises(DomainError):
                Theta(**kwargs)

    def test_pi0_complement(self):
        assert Theta(0.3, 2.0, 1.0, 0.5).pi0 == pytest.approx(0.7)


class TestMarginalMixture:
    def test_reference_value_at_zero(self):
        # 0.65 * Phi(-2.5) + 0.35 * Phi(0)
        assert marginal_mixture_cdf(0.0, REF) == pytest.approx(0.17903,
                                                               abs=1e-5)

    def test_limits(self):
        assert marginal_mixture_cdf(-40.0, REF) == pytest.approx(0.0)
        assert marginal_mixture_cdf(40.0, REF) == pytest.approx(1.0)

    def test_reduces_to_normal_when_components_agree(self):
        theta = Theta(0.5, 1e-6, 1.0, 0.5)
        z = np.linspace(-3, 3, 7)
        np.testing.assert_allclose(marginal_mixture_cdf(z, theta),
                                   normal_cdf(z), atol=1e-6)

    def test_quantile_roundtrip_999_grid(self):
        u = np.linspace(0.001, 0.999, 999)
        z = marginal_mixture_quantile(u, REF)
        np.testing.assert_allclose(marginal_mixture_cdf(z, REF), u,
                                   atol=1e-9)
        # and back through the quantile again
        z2 = marginal_mixture_quantile(marginal_mixture_cdf(z, REF), REF)
        np.testing.assert_allclose(z2, z, atol=1e-9)

    def test_quantile_extreme_u(self):
        z = marginal_mixture_quantile(np.array([1e-15, 1.0 - 1e-15]), REF)
        assert z[0] < -7.0 and z[1] > 9.0
        assert np.all(np.isfinite(z))

    def test_quantile_domain(self):
        with pytest.raises(DomainError):
            marginal_mixture_quantile(np.array([0.0, 0.5]), REF)
        with pytest.raises(DomainError):
            marginal_mixture_quantile(1.0, REF)

    @given(theta_strategy, st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    @settings(max_examples=150, deadline=None)
    def test_quantile_inverts_cdf_property(self, theta, u):
        z = marginal_mixture_quantile(u, theta)
        assert marginal_mixture_cdf(z, theta) == pytest.approx(u, abs=1e-8)

    @given(theta_strategy)
    @settings(max_examples=60, deadline=None)
    def test_cdf_monotone(self, theta):
        z = np.linspace(-8, 10, 200)
        vals = marginal_mixture_cdf(z, theta)
        assert np.all(np.diff(vals) >= 0.0)


class TestInnerEm:
    def test_loglik_trace_nondecreasing(self):
        pseudo = _latent_pairs(REF, 2000, seed=1)
        rng = np.random.default_rng(2)
        for _ in range(20):
            start = Theta(pi1=rng.uniform(0.1, 0.9),
                          mu1=rng.uniform(0.5, 4.0),
                          sigma1_sq=rng.uniform(0.4, 2.5),
                          rho1=rng.uniform(0.1, 0.9))
            _, _, trace = em_inner(pseudo, start, max_iters=25)
            assert np.all(np.diff(trace) >= -1e-7)

    def test_recovers_latent_parameters(self):
        pseudo = _latent_pairs(REF, 20_000, seed=3)
        theta, gamma, _ = em_inner(pseudo, Theta(0.5, 2.0, 1.5, 0.5),
                                   max_iters=300, tol=1e-8)
        assert theta.pi1 == pytest.approx(REF.pi1, abs=0.03)
        assert theta.mu1 == pytest.approx(REF.mu1, abs=0.1)
        assert theta.sigma1_sq == pytest.approx(REF.sigma1_sq, abs=0.12)
        assert theta.rho1 == pytest.approx(REF.rho1, abs=0.03)
        assert gamma.shape == (20_000,)
        assert np.all((gamma >= 0.0) & (gamma <= 1.0))

    def test_degenerate_component_raises(self):
        rng = np.random.default_rng(4)
        pseudo = PseudoData(z1=rng.normal(size=500), z2=rng.normal(size=500))
        # a far-away component gets effectively zero responsibility
        start = Theta(pi1=1e-4, mu1=50.0, sigma1_sq=1e-3, rho1=0.99)
        with pytest.raises(DegenerateComponent):
            em_inner(pseudo, start, max_iters=50)


class TestLogLikelihood:
    def test_matches_direct_sum(self):
        pseudo = _latent_pairs(REF, 500, seed=5)
        from idrkit.dists import BivariateGaussianParams, \
            bivariate_normal_density

        h0 = bivariate_normal_density(pseudo.z1, pseudo.z2,
                                      BivariateGaussianParams(0.0, 1.0, 0.0))
        h1 = bivariate_normal_density(
            pseudo.z1, pseudo.z2,
            BivariateGaussianParams(REF.mu1, REF.sigma1_sq, REF.rho1))
        direct = np.sum(np.log(REF.pi0 * h0 + REF.pi1 * h1))
        assert log_likelihood(pseudo, REF) == pytest.approx(direct, rel=1e-10)

    def test_copula_variant_removes_marginals(self):
        # with both replicates independent standard normal and theta's
        # signal component vanishing, the copula log-likelihood is ~0
        rng = np.random.default_rng(6)
        z = rng.normal(size=(400, 2))
        pseudo = PseudoData(z1=z[:, 0], z2=z[:, 1])
        theta = Theta(1e-3, 2.5, 1.0, 0.5)
        joint = log_likelihood(pseudo, theta)
        cop = copula_log_likelihood(pseudo, theta)
        assert abs(cop) < abs(joint) / 10.0


class TestFit:
    def _dataset(self, n=900, seed=7):
        pseudo = _latent_pairs(REF, n, seed=seed)
        return rank_scores(ScoredPairSet(pseudo.z1, pseudo.z2))

    def test_recovers_reasonable_parameters(self):
        ranked = self._dataset()
        result = fit(ranked, FitConfig(rng_seed=0, n_inits=6))
        assert 0.4 < result.theta.pi1 < 0.9
        assert 1.5 < result.theta.mu1 < 3.5
        assert 0.6 < result.theta.rho1 < 0.95
        assert result.posterior.shape == (900,)

    def test_deterministic_given_seed(self):
        ranked = self._dataset(seed=8)
        a = fit(ranked, FitConfig(rng_seed=5, n_inits=4))
        b = fit(ranked, FitConfig(rng_seed=5, n_inits=4))
        assert a.theta == b.theta
        assert a.loglik == b.loglik

    def test_threads_match_serial(self):
        ranked = self._dataset(seed=9, n=400)
        a = fit(ranked, FitConfig(rng_seed=1, n_inits=4), threads=1)
        b = fit(ranked, FitConfig(rng_seed=1, n_inits=4), threads=4)
        assert a.theta == b.theta

    def test_rank_invariance(self):
        pseudo = _latent_pairs(REF, 700, seed=10)
        ranked = rank_scores(ScoredPairSet(pseudo.z1, pseudo.z2))
        warped = rank_scores(ScoredPairSet(np.exp(pseudo.z1 / 2.0),
                                           np.arctan(pseudo.z2)))
        cfg = FitConfig(rng_seed=2, n_inits=4)
        assert fit(ranked, cfg).theta == fit(warped, cfg).theta

    def test_small_sample_warns(self):
        pseudo = _latent_pairs(REF, 30, seed=11)
        ranked = rank_scores(ScoredPairSet(pseudo.z1, pseudo.z2))
        with pytest.warns(UserWarning, match="unstable"):
            try:
                fit(ranked, FitConfig(rng_seed=0, n_inits=2))
            except DegenerateComponent:
                pass  # tiny samples may legitimately starve a component

    def test_config_validation(self):
        with pytest.raises(DomainError):
            FitConfig(n_inits=0)
        with pytest.raises(DomainError):
            FitConfig(refine_iters=-1)


class TestPseudoData:
    def test_satisfies_quantile_equation(self):
        ranked = self._ranked()
        pseudo = compute_pseudo_data(ranked, REF)
        np.testing.assert_allclose(marginal_mixture_cdf(pseudo.z1, REF),
                                   ranked.u1, atol=1e-9)
        np.testing.assert_allclose(marginal_mixture_cdf(pseudo.z2, REF),
                                   ranked.u2, atol=1e-9)

    def test_preserves_order(self):
        ranked = self._ranked()
        pseudo = compute_pseudo_data(ranked, REF)
        order_u = np.argsort(ranked.u1)
        assert np.all(np.diff(pseudo.z1[order_u]) >= 0.0)

    @staticmethod
    def _ranked():
        rng = np.random.default_rng(12)
        return rank_scores(ScoredPairSet(rng.normal(size=300),
                                         rng.normal(size=300)))
