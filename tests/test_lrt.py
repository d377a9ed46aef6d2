"""One- vs two-component model comparison via parametric bootstrap."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import idrkit.lrt
from idrkit import dists
from idrkit.errors import DegenerateComponent, DomainError
from idrkit.lrt import LrtResult, bootstrap_lrt, fit_one_component
from idrkit.mixture import FitConfig, fit
from idrkit.ranking import ScoredPairSet, rank_scores


def _copula_data(rho, n, seed=0):
    rng = np.random.default_rng(seed)
    cov = np.array([[1.0, rho], [rho, 1.0]])
    z = rng.multivariate_normal([0.0, 0.0], cov, size=n)
    return rank_scores(ScoredPairSet(z[:, 0], z[:, 1]))


def _mixture_data(n, seed=0):
    rng = np.random.default_rng(seed)
    k = rng.random(n) < 0.65
    cov = np.array([[1.0, 0.84], [0.84, 1.0]])
    z = rng.multivariate_normal([0.0, 0.0], np.eye(2), size=n)
    z[k] = 2.5 + rng.multivariate_normal([0.0, 0.0], cov, size=n)[k]
    return rank_scores(ScoredPairSet(z[:, 0], z[:, 1]))


FAST = FitConfig(n_inits=3, rng_seed=0, refine_iters=10)


class TestOneComponent:
    def test_recovers_rho(self):
        for rho in (0.0, 0.5, 0.9):
            ranked = _copula_data(rho, 4000, seed=int(rho * 10))
            est, loglik = fit_one_component(ranked)
            assert est == pytest.approx(rho, abs=0.05)
            assert np.isfinite(loglik)

    def test_independent_copula_loglik_near_zero(self):
        # with rho ~ 0 the copula density is ~1 everywhere
        ranked = _copula_data(0.0, 3000, seed=3)
        _, loglik = fit_one_component(ranked)
        assert abs(loglik) < 30.0

    def test_minimum_size(self):
        ranked = _copula_data(0.5, 49, seed=1)
        with pytest.raises(DomainError):
            fit_one_component(ranked)


def _reference_cases():
    """(name, ranked, clamp): clamp is the expected rho at a clamp, or None
    for an interior optimum."""
    cases = [(f"rho{s}", _copula_data(
        np.random.default_rng(s).uniform(-0.95, 0.95), 1000, seed=100 + s),
        None) for s in range(20)]
    cases.append(("independent", _copula_data(0.0, 1000, seed=7), None))
    x = np.random.default_rng(8).normal(size=(1000, 2))
    y = 0.6 * x[:, 0] + 0.8 * x[:, 1]
    with pytest.warns(UserWarning, match="tied"):
        cases.append(("tied", rank_scores(ScoredPairSet(
            np.round(x[:, 0], 1), np.round(y, 0))), None))
    cases.append(("equal", rank_scores(ScoredPairSet(x[:, 0], x[:, 0])),
                  0.999))
    cases.append(("reversed", rank_scores(ScoredPairSet(x[:, 0], -x[:, 0])),
                  -0.999))
    return cases


def _ref_copula_loglik(z1, z2, rho):
    """The Gaussian copula log-likelihood summed point by point: the joint
    normal log density less its two marginal log densities."""
    joint = stats.multivariate_normal([0.0, 0.0], [[1.0, rho], [rho, 1.0]])
    marginals = stats.norm.logpdf(z1) + stats.norm.logpdf(z2)
    return float(np.sum(joint.logpdf(np.column_stack([z1, z2])))
                 - np.sum(marginals))


class TestClosedFormNull:
    """The closed-form null fit against a bounded numerical search of a
    per-point reference likelihood (scipy.optimize is imported in the test
    only)."""

    def test_matches_bounded_search(self):
        minimize_scalar = pytest.importorskip(
            "scipy.optimize").minimize_scalar
        for name, ranked, clamp in _reference_cases():
            rho, loglik = fit_one_component(ranked)
            z1, z2 = dists.normal_quantile(ranked.u)
            ref = minimize_scalar(
                lambda r: -_ref_copula_loglik(z1, z2, r),
                bounds=(-0.999, 0.999), method="bounded",
                options={"xatol": 1e-10})
            assert abs(rho - ref.x) <= 1e-6, name
            assert loglik >= -ref.fun - 1e-9, name
            assert abs(loglik - _ref_copula_loglik(z1, z2, rho)) \
                <= 1e-13 * ranked.n, name
            if clamp is not None:
                assert rho == clamp, name
                continue
            # an interior optimum is a root of the score cubic
            assert abs(rho) < 0.999, name
            r, a = np.mean(z1 * z2), np.mean(z1 * z1 + z2 * z2)
            f = rho ** 3 - r * rho ** 2 - (1.0 - a) * rho - r
            assert abs(f) <= 1e-10, name


class TestBootstrapLrt:
    def test_strong_mixture_rejects(self):
        ranked = _mixture_data(500, seed=2)
        res = bootstrap_lrt(ranked, n_bootstrap=9, seed=0, fit_config=FAST)
        assert isinstance(res, LrtResult)
        assert res.two_log_lambda > 0.0
        assert res.p_value == pytest.approx(1.0 / 10.0)

    def test_null_data_does_not_reject(self):
        ranked = _copula_data(0.6, 500, seed=4)
        res = bootstrap_lrt(ranked, n_bootstrap=9, seed=4, fit_config=FAST)
        assert res.p_value > 0.05

    def test_addone_pvalue_never_zero(self):
        ranked = _mixture_data(300, seed=5)
        res = bootstrap_lrt(ranked, n_bootstrap=4, seed=2, fit_config=FAST)
        assert res.p_value >= 1.0 / 5.0 or res.p_value == pytest.approx(0.2)
        assert res.bootstrap_stats.shape == (4,)

    def test_deterministic(self):
        ranked = _mixture_data(300, seed=6)
        a = bootstrap_lrt(ranked, n_bootstrap=4, seed=3, fit_config=FAST)
        b = bootstrap_lrt(ranked, n_bootstrap=4, seed=3, fit_config=FAST)
        assert a.p_value == b.p_value
        np.testing.assert_array_equal(a.bootstrap_stats, b.bootstrap_stats)

    def test_threads_match_serial(self):
        # at n = 3,400 each fit's three starts run as two blocks, so threads
        # > 1 spreads them over a pool
        ranked = _mixture_data(3400, seed=7)
        a = bootstrap_lrt(ranked, n_bootstrap=2, seed=4, fit_config=FAST)
        for threads in (2, 4):
            b = bootstrap_lrt(ranked, n_bootstrap=2, seed=4,
                              fit_config=replace(FAST, threads=threads))
            assert b.bootstrap_stats.tobytes() == a.bootstrap_stats.tobytes()
            assert (b.p_value, b.alt.theta) == (a.p_value, a.alt.theta)

    def test_every_fit_gets_threads(self, monkeypatch):
        # the observed fit, then each replicate's fit in turn
        handed = []

        def spy_fit(ranked, config):
            handed.append((config.rng_seed, config.threads))
            return fit(ranked, config)
        monkeypatch.setattr(idrkit.lrt, "fit", spy_fit)
        bootstrap_lrt(_mixture_data(300, seed=7), n_bootstrap=4, seed=4,
                      fit_config=replace(FAST, threads=3))
        assert handed == [(FAST.rng_seed + b, 3) for b in range(5)]

    @staticmethod
    def _starve(monkeypatch, draws):
        """Make lrt's fit raise DegenerateComponent on the first draws[s]
        fits with rng_seed s; replicate b fits with rng_seed base + b + 1,
        on every draw."""
        fits = Counter()

        def starving_fit(ranked, config):
            fits[config.rng_seed] += 1
            if fits[config.rng_seed] <= draws.get(config.rng_seed, 0):
                raise DegenerateComponent("starved")
            return fit(ranked, config)
        monkeypatch.setattr(idrkit.lrt, "fit", starving_fit)

    def test_starved_draw_is_redrawn(self, monkeypatch):
        # replicate 3 starves on its first draw, so it scores the draw
        # (seed, 3, 1), 0.47 where the first draw scored 0, and no other
        # replicate moves
        ranked = _mixture_data(300, seed=9)
        base = bootstrap_lrt(ranked, n_bootstrap=4, seed=0, fit_config=FAST)
        self._starve(monkeypatch, {FAST.rng_seed + 4: 1})
        res = bootstrap_lrt(ranked, n_bootstrap=4, seed=0, fit_config=FAST)
        rng = np.random.default_rng((0, 3, 1))
        latent = rng.multivariate_normal(
            [0.0, 0.0], [[1.0, res.rho_null], [res.rho_null, 1.0]], size=300)
        boot = rank_scores(ScoredPairSet(latent[:, 0], latent[:, 1]))
        loglik_null = fit_one_component(boot)[1]
        alt = fit(boot, replace(FAST, rng_seed=FAST.rng_seed + 4))
        assert res.bootstrap_stats[3] == \
            2.0 * max(0.0, alt.copula_loglik - loglik_null)
        assert res.bootstrap_stats[3] != base.bootstrap_stats[3]
        np.testing.assert_array_equal(res.bootstrap_stats[:3],
                                      base.bootstrap_stats[:3])

    def test_replicate_starved_on_every_draw_counts_against(self,
                                                           monkeypatch):
        # four starved draws score inf, which adds 1/(B + 1) to the p-value
        ranked = _mixture_data(300, seed=9)
        base = bootstrap_lrt(ranked, n_bootstrap=4, seed=0, fit_config=FAST)
        assert base.bootstrap_stats[2] < base.two_log_lambda
        self._starve(monkeypatch, {FAST.rng_seed + 3: 4})
        res = bootstrap_lrt(ranked, n_bootstrap=4, seed=0, fit_config=FAST)
        assert res.bootstrap_stats[2] == np.inf
        np.testing.assert_array_equal(res.bootstrap_stats[[0, 1, 3]],
                                      base.bootstrap_stats[[0, 1, 3]])
        assert res.p_value == pytest.approx(base.p_value + 1.0 / 5.0)

    def test_alt_is_the_observed_fit(self):
        # the alternative is the fit of the observed data, kept whole
        ranked = _mixture_data(400, seed=10)
        res = bootstrap_lrt(ranked, n_bootstrap=2, seed=1, fit_config=FAST)
        alt = fit(ranked, FAST)
        assert res.alt.theta == alt.theta
        assert res.alt.posterior.tobytes() == alt.posterior.tobytes()
        assert (res.alt.copula_loglik, res.alt.converged) == \
            (alt.copula_loglik, alt.converged)
        assert res.two_log_lambda == \
            2.0 * max(0.0, alt.copula_loglik - res.loglik_null)

    def test_validates_n_bootstrap(self):
        ranked = _mixture_data(300, seed=8)
        with pytest.raises(DomainError):
            bootstrap_lrt(ranked, n_bootstrap=0)
