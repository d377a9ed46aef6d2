"""Copula mixture: marginal transforms, inner EM, and the alternating fit."""

import warnings
from dataclasses import asdict, astuple, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

import idrkit.dists
import idrkit.mixture
from idrkit.dists import log_add_exp, normal_cdf
from idrkit.errors import DegenerateComponent, DomainError, NumericalUnderflow
from idrkit.mixture import (OUTER_MAX_ITERS, OUTER_TOL, PI1_MAX, PI1_MIN,
                            RHO1_MAX, RHO1_MIN, THETA_BOXES, FitConfig,
                            FitResult, Theta, _random_theta, _ThetaBlock,
                            compute_pseudo_data, copula_log_likelihood,
                            em_inner, fit, log_likelihood,
                            marginal_mixture_cdf, marginal_mixture_quantile)
from idrkit.ranking import ScoredPairSet, rank_scores
from idrkit.selection import IdrTable, local_idr, select_at_idr
from idrkit.simulate import scenario_preset, simulate_dataset

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
    return tuple(z.T)


@pytest.fixture
def cdf_points(monkeypatch):
    """A one-element list counting the points at which the mixture module
    evaluates G: through _cdf, or in a Newton pass from the standardized
    points it already holds."""
    evaluated = [0]
    mixture_cdf = idrkit.mixture._mixture_cdf

    def counted(z, x1, theta):
        evaluated[0] += np.size(z)
        return mixture_cdf(z, x1, theta)

    monkeypatch.setattr(idrkit.mixture, "_mixture_cdf", counted)
    return evaluated


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


class TestThetaBoxes:
    """THETA_BOXES describes theta once, each field's estimation box and
    start box in Theta's field order; _ThetaBlock, its boxed() and the
    random starts all read it."""

    def test_keys_are_the_fields_of_theta_in_order(self):
        assert list(THETA_BOXES) == [f.name for f in fields(Theta)]

    def test_start_box_lies_inside_estimation_box_and_domain(self):
        for name, ((lo, hi), (start_lo, start_hi)) in THETA_BOXES.items():
            assert lo <= start_lo < start_hi <= hi, name
            for value in (start_lo, start_hi):  # Theta checks its domain
                assert getattr(Theta(**{**asdict(REF), name: value}),
                               name) == value

    def test_boxed_is_a_clip_of_each_field(self):
        rng = np.random.default_rng(0)
        columns, boxes = [], [box for box, _ in THETA_BOXES.values()]
        for lo, hi in boxes:
            top = hi if np.isfinite(hi) else 10.0
            edges = [lo, hi, np.nextafter(lo, -np.inf),
                     np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf),
                     np.nextafter(hi, np.inf), 0.0, -0.0, -np.inf, np.inf,
                     -1e300, 1e300]
            column = np.concatenate([rng.uniform(lo - 1.0, top + 1.0, 300),
                                     edges])
            columns.append(rng.permutation(column))
        values = np.column_stack(columns)
        block = _ThetaBlock.boxed(values)
        want = np.column_stack([np.clip(values[:, k], lo, hi)
                                for k, (lo, hi) in enumerate(boxes)])
        assert block.values.tobytes() == want.tobytes()
        for k, name in enumerate(THETA_BOXES):
            assert getattr(block, name).tobytes() == want[:, k:k + 1].tobytes()

    def test_block_round_trips_every_field(self):
        rng = np.random.default_rng(1)
        thetas = [_random_theta(rng) for _ in range(6)] + [
            Theta(PI1_MIN, 5e-324, 1e-300, 1.0),
            Theta(PI1_MAX, 1e300, 1.7976931348623157e308, RHO1_MIN),
            Theta(*(float(np.nextafter(v, 1.0)) for v in astuple(REF)))]
        rows = np.array([8, 3, 0, 3, 6, 7])
        for take in (rows, np.isin(np.arange(len(thetas)), rows)):
            block = _ThetaBlock.of(thetas).take(take)
            picked = rows if take.dtype != bool else np.flatnonzero(take)
            for i, row in enumerate(picked):
                got = astuple(block.theta(i))
                assert [v.hex() for v in got] == \
                    [float(v).hex() for v in astuple(thetas[row])]
                assert all(type(v) is float for v in got)


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

    def test_quantile_of_empty_input(self):
        assert marginal_mixture_quantile(np.array([]), REF).shape == (0,)
        block = idrkit.mixture._ThetaBlock.of([REF, REF])
        assert _block_quantile(np.array([]), block).shape == (2, 0)

    def test_quantile_bisects_only_stalled_points(self, cdf_points):
        # only the points Newton leaves unfinished may be bisected: bisecting
        # the whole n = 1e5 rank grid would cost ~92 CDF passes over it
        evaluated = cdf_points
        n = 100_000
        u = np.arange(1, n + 1) / (n + 1.0)
        cdf = marginal_mixture_cdf
        rng = np.random.default_rng(0)
        for _ in range(10):
            theta = _random_theta(rng)
            evaluated[0] = 0
            z = marginal_mixture_quantile(u, theta)
            assert evaluated[0] <= 20 * n, theta
            np.testing.assert_allclose(cdf(z, theta), u, atol=1e-9)

    @pytest.mark.parametrize("n", [100_000, 300_000])
    def test_quantile_needs_at_most_two_passes(self, cdf_points, n):
        # the seed grid plus two Newton passes over the points: no point
        # stalls on the top of a large rank grid
        u = np.arange(1, n + 1) / (n + 1.0)
        rng = np.random.default_rng(n)
        for _ in range(10):
            theta = _random_theta(rng)
            cdf_points[0] = 0
            marginal_mixture_quantile(u, theta)
            assert cdf_points[0] <= 2 * n + idrkit.mixture._SEED_POINTS, theta

    @pytest.mark.parametrize("seed", range(5))
    def test_block_seed_spends_few_points(self, cdf_points, seed):
        # a fit's 10 starts solved as one block at n = 1e3: the seed's grid
        # points and the Newton passes together evaluate G at most 1.3 n
        # times per row (a 2,049-point cubic seed took 1.84 n)
        n = 1_000
        u = np.arange(1, n + 1) / (n + 1.0)
        rng = np.random.default_rng(seed)
        block = idrkit.mixture._ThetaBlock.of(
            [_random_theta(rng) for _ in range(10)])
        _block_quantile(u, block)
        assert cdf_points[0] <= 1.3 * n * 10

    def test_seed_evaluates_g_on_its_grid_alone(self, cdf_points):
        # each row's seed evaluates G at its _SEED_POINTS grid points on the
        # row's bracket, however narrow or far out its components are
        n = 1_000
        u = np.arange(1, n + 1) / (n + 1.0)
        for rows, block in TestQuantileBlock._blocks(n):
            lo, hi = idrkit.mixture._bracket(*idrkit.mixture._rank_grid(n)[1],
                                             block)
            cdf_points[0] = 0
            idrkit.mixture._hermite_seed(u, block, lo, hi)
            assert cdf_points[0] == len(rows) * idrkit.mixture._SEED_POINTS

    def test_quantile_of_narrow_component(self, cdf_points):
        # at the clamps a component can be narrower than a seed grid step;
        # its points must still finish by Newton, not by the 80 bisection
        # passes
        n = 10_000
        u = np.arange(1, n + 1) / (n + 1.0)
        for theta in TestRankGridRefresh._thetas():
            cdf_points[0] = 0
            marginal_mixture_quantile(u, theta)
            assert cdf_points[0] <= 6 * n, theta

    def test_quantile_bisects_what_newton_leaves(self, monkeypatch):
        # with a tolerance of 0 no point stops, so every point is bisected
        u = np.linspace(0.001, 0.999, 999)
        expected = marginal_mixture_quantile(u, REF)
        monkeypatch.setattr(idrkit.mixture, "_TOL", 0.0)
        np.testing.assert_allclose(marginal_mixture_quantile(u, REF),
                                   expected, rtol=0.0, atol=1e-12)


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

    def test_needs_one_iteration(self):
        with pytest.raises(DomainError):
            em_inner(_latent_pairs(REF, 100), REF, max_iters=0)

    def test_degenerate_component_raises(self):
        rng = np.random.default_rng(4)
        pseudo = tuple(rng.normal(size=(2, 500)))
        # a far-away component gets effectively zero responsibility
        start = Theta(pi1=1e-4, mu1=50.0, sigma1_sq=1e-3, rho1=0.99)
        with pytest.raises(DegenerateComponent):
            em_inner(pseudo, start, max_iters=50)


def _xy_em_inner(pseudo, theta, max_iters):
    """EM on fixed pseudo-data with the density and M-step written in the
    replicates' own coordinates (x, y), the textbook form: an independent
    reference for em_inner's sum/difference form.  Its cross term x y
    rounds differently when x and y trade places, so the two agree to
    rounding, not bit for bit."""
    x, y = pseudo
    trace = []
    for _ in range(max_iters):
        dx, dy = x - theta.mu1, y - theta.mu1
        one_m_r2 = 1.0 - theta.rho1 * theta.rho1
        log_h1 = (-0.5 * (dx * dx - 2.0 * theta.rho1 * dx * dy + dy * dy)
                  / (theta.sigma1_sq * one_m_r2) - 0.5 * np.log(one_m_r2)
                  - np.log(theta.sigma1_sq) - np.log(2.0 * np.pi))
        log_h0 = -0.5 * (x * x + y * y) - np.log(2.0 * np.pi)
        a1 = np.log(theta.pi1) + log_h1
        norm = np.logaddexp(np.log(theta.pi0) + log_h0, a1)
        gamma = np.exp(a1 - norm)
        trace.append(float(np.sum(norm)))
        total = float(np.sum(gamma))
        mu1 = float(np.sum(gamma * (x + y)) / (2.0 * total))
        dx, dy = x - mu1, y - mu1
        sigma1_sq = max(float(np.sum(gamma * (dx * dx + dy * dy))
                              / (2.0 * total)), 1e-6)
        rho1 = float(np.sum(gamma * dx * dy) / (sigma1_sq * total))
        theta = Theta(pi1=float(np.clip(total / gamma.size, PI1_MIN, PI1_MAX)),
                      mu1=max(mu1, 1e-6), sigma1_sq=sigma1_sq,
                      rho1=float(np.clip(rho1, RHO1_MIN, RHO1_MAX)))
    return theta, gamma, trace


class TestSumDifferenceForm:
    """The sum/difference density and M-step against the (x, y) form."""

    @pytest.mark.parametrize("seed", range(6))
    def test_em_matches_xy_form(self, seed):
        rng = np.random.default_rng(seed)
        pseudo = _latent_pairs(_random_theta(rng), 3000, seed=seed)
        start = _random_theta(rng)
        new = em_inner(pseudo, start, tol=-np.inf, max_iters=8)
        old = _xy_em_inner(pseudo, start, max_iters=8)
        for name in ("pi1", "mu1", "sigma1_sq", "rho1"):
            assert getattr(new[0], name) == pytest.approx(
                getattr(old[0], name), rel=1e-12, abs=0.0), name
        np.testing.assert_allclose(new[1], old[1], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(new[2], old[2], rtol=1e-12, atol=0.0)

    def test_densities_swap_exactly(self):
        # no term mixes the replicates, so a swap leaves every bit
        pseudo = _latent_pairs(REF, 3000, seed=4)
        swapped = pseudo[::-1]
        block = idrkit.mixture._ThetaBlock.of([REF])
        densities, sum_difference = (idrkit.mixture._component_log_densities,
                                     idrkit.mixture._sum_difference)
        for a, b in zip(densities(sum_difference(pseudo), block),
                        densities(sum_difference(swapped), block)):
            assert a.tobytes() == b.tobytes()


class TestLogLikelihood:
    def test_matches_direct_sum(self):
        pseudo = _latent_pairs(REF, 500, seed=5)
        z = np.column_stack(pseudo)
        h0 = stats.multivariate_normal([0.0, 0.0], np.eye(2)).pdf(z)
        h1 = stats.multivariate_normal(
            [REF.mu1, REF.mu1],
            REF.sigma1_sq * np.array([[1.0, REF.rho1], [REF.rho1, 1.0]])
        ).pdf(z)
        direct = np.sum(np.log(REF.pi0 * h0 + REF.pi1 * h1))
        assert log_likelihood(pseudo, REF) == pytest.approx(direct, rel=1e-10)

    def test_both_terms_minus_inf_underflow(self, monkeypatch):
        # where both mixture terms are -inf the E-step must still raise,
        # and the log-sum must not warn on the way
        pseudo = _latent_pairs(REF, 50, seed=5)
        log_h = np.zeros(50)
        log_h[40:] = -np.inf
        monkeypatch.setattr(idrkit.mixture, "_component_log_densities",
                            lambda pseudo, theta: (log_h, log_h))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalUnderflow):
                idrkit.mixture._e_step(pseudo, REF)

    def test_copula_variant_removes_marginals(self):
        # with both replicates independent standard normal and theta's
        # signal component vanishing, the copula log-likelihood is ~0
        rng = np.random.default_rng(6)
        z = rng.normal(size=(400, 2))
        pseudo = tuple(z.T)
        theta = Theta(1e-3, 2.5, 1.0, 0.5)
        joint = log_likelihood(pseudo, theta)
        cop = copula_log_likelihood(pseudo, theta)
        assert abs(cop) < abs(joint) / 10.0


class TestFit:
    def _dataset(self, n=900, seed=7):
        pseudo = _latent_pairs(REF, n, seed=seed)
        return rank_scores(ScoredPairSet(*pseudo))

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
        ranked = rank_scores(ScoredPairSet(*pseudo))
        warped = rank_scores(ScoredPairSet(np.exp(pseudo[0] / 2.0),
                                           np.arctan(pseudo[1])))
        cfg = FitConfig(rng_seed=2, n_inits=4)
        assert fit(ranked, cfg).theta == fit(warped, cfg).theta

    def test_small_sample_warns(self):
        pseudo = _latent_pairs(REF, 30, seed=11)
        ranked = rank_scores(ScoredPairSet(*pseudo))
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


class TestTiedRunaway:
    """Heavily tied scores, where the fit runs off yet reports convergence
    (ROADMAP item 4).  The bound, written before any fix: a fit that reports
    `converged` has no field on its THETA_BOXES clamp, and mu1 and sigma1_sq
    below 1e3.  Both fail strictly until the fit handles ties."""

    @staticmethod
    def _fit_tied(scores):
        with pytest.warns(UserWarning, match="tied"):
            ranked = rank_scores(ScoredPairSet(*scores.T))
        return fit(ranked)

    @staticmethod
    def _assert_bounded(result):
        if not result.converged:
            return
        clamped = {name: value for (name, ((lo, hi), _)), value in zip(
            THETA_BOXES.items(), astuple(result.theta)) if value in (lo, hi)}
        assert clamped == {}
        assert result.theta.mu1 < 1e3 and result.theta.sigma1_sq < 1e3

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="pi1 0.9999, mu1 3.7e8, sigma1_sq 2.3e16, "
                              "rho1 1e-4, converged")
    def test_three_integer_scores(self):
        scores = np.random.default_rng(0).integers(0, 3, (300, 2))
        self._assert_bounded(self._fit_tied(scores.astype(float)))

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="pi1 0.9999, sigma1_sq 1e-6, rho1 1e-4, "
                              "converged")
    def test_identical_rows(self):
        self._assert_bounded(self._fit_tied(np.ones((300, 2))))


class TestPseudoData:
    def test_satisfies_quantile_equation(self):
        ranked = self._ranked()
        pseudo = compute_pseudo_data(ranked, REF)
        for z, u in zip(pseudo, ranked.u):
            np.testing.assert_allclose(marginal_mixture_cdf(z, REF), u,
                                       atol=1e-9)

    def test_preserves_order(self):
        ranked = self._ranked()
        pseudo = compute_pseudo_data(ranked, REF)
        for z, u in zip(pseudo, ranked.u):
            assert np.all(np.diff(z[np.argsort(u)]) >= 0.0)

    @staticmethod
    def _ranked():
        rng = np.random.default_rng(12)
        return rank_scores(ScoredPairSet(rng.normal(size=300),
                                         rng.normal(size=300)))


class TestReplicateSwap:
    """Swapping the two replicates reverses the replicate axis of the
    pseudo-data bit for bit, and the fit returns the same theta bits and
    posteriors, so it selects the same count."""

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_pseudo_data_reverses(self, data):
        n = data.draw(st.integers(min_value=2, max_value=300))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        scores = rng.normal(size=(2, n))
        if data.draw(st.booleans()):
            scores = np.round(scores, 1)  # ties on both replicates
        theta = data.draw(theta_strategy)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ranked = rank_scores(ScoredPairSet(*scores))
            swapped = rank_scores(ScoredPairSet(*scores[::-1]))
        z = compute_pseudo_data(ranked, theta)
        z_swapped = compute_pseudo_data(swapped, theta)
        assert [v.tobytes() for v in z_swapped] == \
            [v.tobytes() for v in z[::-1]]

    @pytest.mark.parametrize("decimals", [None, 1])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_fit_selects_the_same_count(self, seed, decimals):
        for scenario in ("S1", "S3"):
            data = simulate_dataset(scenario_preset(scenario, n=1000,
                                                    seed=seed))
            scores = -np.log10(data.pvalues)
            if decimals is not None:
                scores = np.round(scores, decimals)
            results = []
            for ordered in (scores, scores[::-1]):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    ranked = rank_scores(ScoredPairSet(*ordered))
                results.append(fit(ranked, FitConfig(rng_seed=0, n_inits=4)))
            a, b = results
            assert a.theta == b.theta, scenario
            assert a.posterior.tobytes() == b.posterior.tobytes()
            assert (a.loglik, a.copula_loglik, a.init_index) == \
                (b.loglik, b.copula_loglik, b.init_index)
            assert select_at_idr(
                IdrTable.from_local_idr(1.0 - a.posterior), 0.05) > 0


class TestPublicForms:
    """The public functions take a Theta, run it as a one-row block and
    give their results in the form of their input."""

    def test_scalar_in_float_out(self):
        assert type(marginal_mixture_cdf(0.3, REF)) is float
        assert type(marginal_mixture_quantile(0.3, REF)) is float
        point = (np.array(0.3), np.array(-0.2))
        assert type(log_likelihood(point, REF)) is float
        assert type(copula_log_likelihood(point, REF)) is float

    @pytest.mark.parametrize("m", [1, 7])
    def test_array_keeps_its_shape(self, m):
        u = np.linspace(0.1, 0.9, m)
        assert marginal_mixture_cdf(u, REF).shape == (m,)
        assert marginal_mixture_quantile(u, REF).shape == (m,)
        pseudo = (u, u[::-1])
        assert type(log_likelihood(pseudo, REF)) is float
        assert type(copula_log_likelihood(pseudo, REF)) is float

    def test_per_signal_results_are_one_dimensional(self):
        ranked = TestPseudoData._ranked()
        pseudo = compute_pseudo_data(ranked, REF)
        assert [z.shape for z in pseudo] == [(ranked.n,)] * 2
        assert local_idr(ranked, REF).shape == (ranked.n,)
        _, gamma, trace = em_inner(pseudo, REF, max_iters=2)
        assert gamma.shape == (ranked.n,)
        assert all(type(v) is float for v in trace)


def _per_replicate_pseudo_data(ranked, theta):
    """The refresh as it was before the rank grid: one G^{-1} solve over
    each replicate's own u values, seeded on the rank grid's bracket."""
    ends = idrkit.mixture._rank_grid(ranked.n)[1]
    block = idrkit.mixture._ThetaBlock.of([theta])
    return tuple(_block_quantile(u, block, ends)[0] for u in ranked.u)


def _block_quantile(u, block, ends=None):
    """The quantiles of every row of a block, solved together."""
    return idrkit.mixture._quantile_rows(u, block, ends)


def _per_replicate_refresh(ranked, block):
    """The fit's refresh as it was before the rank grid: per-replicate
    G^{-1} solves, and the log marginal densities evaluated at each
    replicate's pseudo-data rather than once per grid point."""
    ends = idrkit.mixture._rank_grid(ranked.n)[1]
    pseudo = tuple(_block_quantile(u, block, ends) for u in ranked.u)
    return (idrkit.mixture._sum_difference(pseudo),
            idrkit.mixture._log_marginals(pseudo, block))


class TestRankGridRefresh:
    """The rank-grid refresh reproduces the per-replicate solve bit for bit,
    although Newton's stop rule takes its max over a different batch."""

    @staticmethod
    def _s1_forms():
        data = simulate_dataset(scenario_preset("S1", n=10_000, seed=0))
        forms = {"raw": data.scores()}
        for decimals in (2, 1, 0):
            forms[f"-log10 p to {decimals} decimals"] = ScoredPairSet(
                *np.round(-np.log10(data.pvalues), decimals))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return {name: rank_scores(scores)
                    for name, scores in forms.items()}

    @staticmethod
    def _thetas():
        rng = np.random.default_rng(13)
        drawn = [_random_theta(rng) for _ in range(30)]
        clamps = [Theta(pi1, mu1, sigma1_sq, rho1)
                  for pi1 in (PI1_MIN, PI1_MAX)
                  for mu1, sigma1_sq in ((1e-6, 1e-6), (1.0, 1e-6),
                                         (4.0, 1e-6), (1e-6, 2.0))
                  for rho1 in (RHO1_MIN, RHO1_MAX)]
        return drawn + clamps

    def test_matches_per_replicate_solve(self):
        forms = self._s1_forms()
        assert [r.n_ties for r in forms.values()] == [3, 9963, 9993, 9999]
        for name, ranked in forms.items():
            for theta in self._thetas():
                grid = compute_pseudo_data(ranked, theta)
                old = _per_replicate_pseudo_data(ranked, theta)
                assert np.array_equal(grid, old), (name, theta)

    def test_fit_unchanged(self, monkeypatch):
        data = simulate_dataset(scenario_preset("S1", n=2000, seed=0))
        ranked = rank_scores(data.scores())
        config = FitConfig(rng_seed=0)
        new = fit(ranked, config)
        monkeypatch.setattr(idrkit.mixture, "_refresh",
                            _per_replicate_refresh)
        old = fit(ranked, config)
        assert new.theta == old.theta
        assert np.array_equal(new.posterior, old.posterior)
        assert new.loglik == old.loglik
        assert new.copula_loglik == old.copula_loglik
        assert new.n_outer_iters == old.n_outer_iters


def _ref_bracket(u, theta):
    """The reference solver's grid ends, as they were before the seed grid
    was put on the closed-form bracket: a 10 sigma box around each
    component, widened by doubling until G at its ends brackets min(u) and
    max(u)."""
    lo = min(-10.0, theta.mu1 - 10.0 * theta.sigma1)
    hi = max(10.0, theta.mu1 + 10.0 * theta.sigma1)
    while marginal_mixture_cdf(lo, theta) > np.min(u):
        lo = 2.0 * lo - hi
    while marginal_mixture_cdf(hi, theta) < np.max(u):
        hi = 2.0 * hi - lo
    return lo, hi


def _full_grid_hermite_seed(u, theta):
    """The quintic Hermite seed of one theta alone, with scalar arithmetic
    on np.linspace of its bracket of min(u) and max(u)."""
    points = idrkit.mixture._SEED_POINTS
    q_lo, q_hi = special.ndtri(np.min(u)), special.ndtri(np.max(u))
    lo = min(q_lo, theta.mu1 + theta.sigma1 * q_lo)
    hi = max(q_hi, theta.mu1 + theta.sigma1 * q_hi)
    grid = np.linspace(lo, hi, points)
    d1, d0, x1 = idrkit.mixture._density_terms(grid, theta)
    cdf = marginal_mixture_cdf(grid, theta)
    dens = np.maximum(d1 + d0, 1e-300)
    at = np.interp(u, cdf, np.arange(float(points)))
    k = np.minimum(np.floor(at), points - 2.0)
    s = at - k
    k = k.astype(int)
    bend = (d1 * x1 / theta.sigma1 + d0 * grid) / dens
    rise, gain = np.diff(grid), np.diff(cdf)
    m0, m1 = gain / dens[:-1], gain / dens[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        a0, a1 = m0 * m0 * bend[:-1], m1 * m1 * bend[1:]
        c3 = 10.0 * rise - 6.0 * m0 - 4.0 * m1 - 1.5 * a0 + 0.5 * a1
        c4 = -15.0 * rise + 8.0 * m0 + 7.0 * m1 + 1.5 * a0 - a1
        c5 = 6.0 * rise - 3.0 * (m0 + m1) - 0.5 * (a0 - a1)
        poly = s * (m0[k] + s * (0.5 * a0[k] + s * (c3[k] + s * (
            c4[k] + s * c5[k]))))
    return grid[k] + np.fmin(np.fmax(poly, 0.0), rise[k])


def _ref_quantile(u, theta, tol=1e-12):
    """The solver as it was before the Hermite seed, kept verbatim as the
    reference: a linear grid seed, then up to 12 Newton passes over every
    point of a row until the row's largest step is below tol, then bisection
    of the points whose last step missed it."""
    block = idrkit.mixture._ThetaBlock.of([theta])
    cdf, pdf = idrkit.mixture._cdf, idrkit.mixture._marginal_mixture_pdf
    u_min, u_max = np.min(u), np.max(u)
    lo, hi = (np.array([[end]]) for end in _ref_bracket(u, theta))
    z = _ref_grid_seed(u_min, u_max, u, block, lo, hi)
    live, zl = np.arange(len(z)), z
    for _ in range(12):
        resid = cdf(zl, block) - u
        dens = pdf(zl, block)
        step = np.where(dens > 0.0, resid / np.maximum(dens, 1e-300), 0.0)
        zl = np.clip(zl - step, lo, hi)
        done = np.max(np.abs(step), axis=1) < tol
        if done.all():
            z[live] = zl
            return z[0]
        if done.any():
            z[live[done]] = zl[done]
            keep = ~done
            live, zl, step, lo, hi = (live[keep], zl[keep], step[keep],
                                      lo[keep], hi[keep])
            block = block.take(keep)
    row, col = np.nonzero(np.abs(step) >= tol)
    points = block.take(row)
    u_left = u[col, None]
    a, b = lo[row], hi[row]
    for _ in range(80):
        mid = 0.5 * (a + b)
        below = cdf(mid, points) < u_left
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
    zl[row, col] = 0.5 * (a + b)[:, 0]
    z[live] = zl
    return z[0]


def _ref_grid_seed(u_min, u_max, u, block, lo, hi):
    last = 2049 - 1
    step = (hi - lo) / last
    q_min, q_max = special.ndtri(u_min), special.ndtri(u_max)
    below = np.minimum(q_min, block.mu1 + block.sigma1 * q_min)
    above = np.maximum(q_max, block.mu1 + block.sigma1 * q_max)
    first = np.clip(np.floor((below - lo) / step) - 1.0, 0.0, last)
    stop = np.clip(np.ceil((above - lo) / step) + 1.0, 0.0, last)
    index = np.minimum(first + np.arange(int(np.max(stop - first)) + 1), last)
    grid = np.where(index == last, hi, index * step + lo)
    cdf = idrkit.mixture._cdf(grid, block)
    width = (stop - first).astype(int)[:, 0] + 1
    return np.array([np.interp(u, c[:w], g[:w])
                     for c, g, w in zip(cdf, grid, width)])


class TestQuantileBlock:
    """Quantiles for a block of thetas, solved together, equal those of each
    theta alone bit for bit; so does the seed, on each row's own bracket."""

    # a narrow component far out: at mu1 = 300 the seed can put a point
    # with u > 0.5 on the plateau between the components, where G = 0.5 and
    # G' underflows to 0, so Newton's step there is 0
    PLATEAU = Theta(0.5, 300.0, 1e-6, 0.5)
    FAR = [Theta(0.5, 30.0, 1e-6, 0.5), PLATEAU]

    @staticmethod
    def _thetas(n):
        rng = np.random.default_rng(n)
        wide = [Theta(rng.uniform(PI1_MIN, PI1_MAX), rng.uniform(1e-6, 8.0),
                      rng.uniform(1e-6, 6.0), rng.uniform(RHO1_MIN, RHO1_MAX))
                for _ in range(30)]
        return TestRankGridRefresh._thetas() + wide + TestQuantileBlock.FAR

    @classmethod
    def _blocks(cls, n):
        thetas = cls._thetas(n)
        for first in range(0, len(thetas), 8):
            rows = thetas[first:first + 8]
            yield rows, idrkit.mixture._ThetaBlock.of(rows)

    @pytest.mark.parametrize("n", [100, 1_000, 10_000, 100_000])
    def test_block_seed_matches_scalar_seed(self, n):
        # each row's seed grid is its own theta's bracket, so a row of a
        # block is seeded as that theta alone
        u = np.arange(1, n + 1) / (n + 1.0)
        for rows, block in self._blocks(n):
            lo, hi = idrkit.mixture._bracket(
                special.ndtri(u[0]), special.ndtri(u[-1]), block)
            seed = idrkit.mixture._hermite_seed(u, block, lo, hi)
            for i, theta in enumerate(rows):
                assert np.array_equal(seed[i], _full_grid_hermite_seed(
                    u, theta)), (n, theta)

    @pytest.mark.parametrize("n", [100, 1_000, 10_000, 100_000])
    def test_rows_match_single_solves(self, n):
        # points differ in their Newton pass counts (the clamped thetas
        # need several), so each point needs its own stop
        u = np.arange(1, n + 1) / (n + 1.0)
        for rows, block in self._blocks(n):
            z = _block_quantile(u, block)
            for i, theta in enumerate(rows):
                assert np.array_equal(z[i], marginal_mixture_quantile(
                    u, theta)), (n, theta)

    @pytest.mark.parametrize("n", [10_000, 100_000])
    def test_matches_three_pass_solver(self, n):
        # each bound is widened by the rounding floor where double precision
        # cannot reach it: where G' is small, one rounding of G (2^-53) moves
        # z by more than 1e-11, and where it is large, G changes by more than
        # 1e-15 between neighbouring floats z
        # The reference also stops a point where G' underflows to 0, and
        # on PLATEAU leaves G - u up to 4.5e-4, so there the solve alone is
        # checked
        u = np.arange(1, n + 1) / (n + 1.0)
        for theta in self._thetas(n):
            z = marginal_mixture_quantile(u, theta)
            if theta != self.PLATEAU:
                _assert_matches_three_pass_solver(z, u, theta)
            _assert_solves(z, u, theta)

    @pytest.mark.parametrize("n", [999, 10_001])
    @pytest.mark.parametrize("mu1, tiny", [(1.0, []), (4.0, [1e-300])])
    def test_step_clipped_off_an_inflection_point(self, n, mu1, tiny):
        # at pi1 = PI1_MAX and sigma1_sq = 1e-6 a point can reach a z where
        # G'' is 0 or nearly so, and Newton predicts no further step, while
        # its step from there is clipped to its bracket: it must go on from
        # the bracket's end, not stop there.  With mu1 = 1 this is u = 0.5
        # at z = 0, on the grid of an odd n; with mu1 = 4 it needs a tiny u
        # in the same call, and then befalls points all over the grid
        u = np.arange(1, n + 1) / (n + 1.0)
        theta = Theta(PI1_MAX, mu1, 1e-6, 0.5)
        z = marginal_mixture_quantile(np.concatenate([tiny, u]), theta)
        _assert_matches_three_pass_solver(z[len(tiny):], u, theta)

    @staticmethod
    def _sweep_thetas():
        """Narrow components (sigma1_sq = 1e-6) at every mixing weight, and
        components far from the null, narrow or not."""
        rng = np.random.default_rng(29)
        narrow = [Theta(rng.uniform(0.05, PI1_MAX), rng.uniform(0.5, 10.0),
                        1e-6, 0.5) for _ in range(300)]
        far = [Theta(rng.uniform(0.05, PI1_MAX), rng.uniform(10.0, 400.0),
                     sigma1_sq, 0.5)
               for _ in range(34) for sigma1_sq in (1e-6, 1e-3, 1.0)]
        return narrow + far[:100] + [Theta(0.9, 8.0, 1e-6, 0.5)]

    def test_newton_stop_on_narrow_and_far_components(self):
        # Newton may stop a point only where G' > 0, and only once its step
        # is small against sigma1: with the predicted move |G''| step^2 / 2
        # alone, points stopped at inflection points and on plateaus with
        # G - u up to 0.83, and at (0.9, 8, 1e-6, .) G^{-1}(0.5) was off by
        # 1.6e-4 in G
        for theta in self._sweep_thetas():
            for n in (99, 999, 1_000, 9_999):
                u = np.arange(1, n + 1) / (n + 1.0)
                _assert_solves(marginal_mixture_quantile(u, theta), u, theta)
        theta = Theta(0.9, 8.0, 1e-6, 0.5)
        z = marginal_mixture_quantile(0.5, theta)
        _assert_solves(np.array([z]), np.array([0.5]), theta)

    def test_extreme_u(self):
        # u at the ends of what a float holds in (0, 1), alone and together:
        # the seed grid spans the bracket of the smallest and largest u, out
        # to where G underflows
        extreme = [5e-324, 1e-300, 1e-30, 1.0 - 2.0 ** -53]
        for theta in self._thetas(0):
            for u in [extreme] + [[e] for e in extreme]:
                z = marginal_mixture_quantile(np.array(u), theta)
                assert np.all(np.isfinite(z)), theta
                _assert_solves(z, np.array(u), theta)


def _assert_matches_three_pass_solver(z, u, theta):
    """z within 1e-11 of the reference solver's quantiles, or within one
    rounding of G (2^-52 over G') where that is larger."""
    dens = idrkit.mixture._marginal_mixture_pdf(z, theta)
    assert np.all(np.abs(z - _ref_quantile(u, theta))
                  <= 1e-11 + 2.0 ** -52 / dens), theta


def _assert_solves(z, u, theta):
    """|G(z) - u| within 1e-15, or within G's change over one float step of
    z where that is larger."""
    dens = idrkit.mixture._marginal_mixture_pdf(z, theta)
    assert np.all(np.abs(marginal_mixture_cdf(z, theta) - u)
                  <= 1e-15 + dens * np.spacing(np.abs(z))), theta


# The two-phase fit as it was before the one alternation loop, kept verbatim
# as the reference: a stop-ruled loop per start and a fixed settling budget
# for the winner, each round an em_inner(max_iters=1) call, the stop rule a
# separate copula_log_likelihood pass, and a closing E-step per phase.

def _ref_log_likelihood(pseudo, theta):
    log_h0, log_h1 = idrkit.mixture._component_log_densities(
        idrkit.mixture._sum_difference(pseudo), theta)
    terms = log_add_exp(np.log(theta.pi0) + log_h0,
                        np.log(theta.pi1) + log_h1)
    return float(np.sum(terms))


def _ref_copula_log_likelihood(pseudo, theta):
    pdf = idrkit.mixture._marginal_mixture_pdf
    ll = _ref_log_likelihood(pseudo, theta)
    marg = np.log(pdf(pseudo[0], theta)) + np.log(pdf(pseudo[1], theta))
    return ll - float(np.sum(marg))


def _ref_e_step(pseudo, theta):
    log_h0, log_h1 = idrkit.mixture._component_log_densities(
        idrkit.mixture._sum_difference(pseudo), theta)
    a0 = np.log(theta.pi0) + log_h0
    a1 = np.log(theta.pi1) + log_h1
    norm = log_add_exp(a0, a1)
    gamma = np.exp(a1 - norm)
    return gamma, float(np.sum(norm))


def _ref_em_inner(pseudo, theta0, tol=1e-4, max_iters=30):
    theta = Theta(pi1=float(np.clip(theta0.pi1, PI1_MIN, PI1_MAX)),
                  mu1=max(theta0.mu1, 1e-6),
                  sigma1_sq=max(theta0.sigma1_sq, 1e-6),
                  rho1=float(np.clip(theta0.rho1, RHO1_MIN, RHO1_MAX)))
    z1, z2 = pseudo
    trace = []
    for _ in range(max_iters):
        gamma, loglik = _ref_e_step(pseudo, theta)
        trace.append(loglik)
        total = float(np.sum(gamma))
        if total < 10.0:
            raise DegenerateComponent(
                f"effective count of the reproducible component is {total:.3f}")
        pi1 = total / gamma.size
        mu1 = float(np.sum(gamma * (z1 + z2)) / (2.0 * total))
        r = z1 + z2 - 2.0 * mu1
        plus = float(np.sum(gamma * r * r) / (2.0 * total))
        minus = float(np.sum(gamma * (z1 - z2) ** 2) / (2.0 * total))
        sigma1_sq = max(0.5 * (plus + minus), 1e-6)
        rho1 = (plus - minus) / (2.0 * sigma1_sq)
        theta = Theta(pi1=float(np.clip(pi1, PI1_MIN, PI1_MAX)),
                      mu1=max(mu1, 1e-6),
                      sigma1_sq=sigma1_sq,
                      rho1=float(np.clip(rho1, RHO1_MIN, RHO1_MAX)))
        if len(trace) >= 2 and trace[-1] - trace[-2] < tol:
            break
    return theta, gamma, trace


def _ref_fit_single(ranked, theta0, init_index):
    theta = theta0
    prev_cop = -np.inf
    converged = False
    n_outer = 0
    pseudo = compute_pseudo_data(ranked, theta)
    for n_outer in range(1, 100 + 1):
        theta, _, _ = _ref_em_inner(pseudo, theta, max_iters=1)
        pseudo = compute_pseudo_data(ranked, theta)
        cop = _ref_copula_log_likelihood(pseudo, theta)
        if abs(cop - prev_cop) < 0.01:
            converged = True
            break
        prev_cop = cop
    gamma, loglik = _ref_e_step(pseudo, theta)
    return FitResult(theta=theta, loglik=loglik, posterior=gamma,
                     n_outer_iters=n_outer, converged=converged,
                     init_index=init_index, copula_loglik=cop)


def _ref_multi_start(ranked, config):
    rng = np.random.default_rng(config.rng_seed)
    starts = [_random_theta(rng) for _ in range(config.n_inits)]
    kept = []
    for idx, start in enumerate(starts):
        try:
            kept.append(_ref_fit_single(ranked, start, idx))
        except DegenerateComponent:
            pass
    return max(kept, key=lambda r: (r.copula_loglik, -r.init_index))


def _ref_refine(ranked, result, config):
    theta = result.theta
    for _ in range(config.refine_iters):
        pseudo = compute_pseudo_data(ranked, theta)
        theta, _, _ = _ref_em_inner(pseudo, theta, max_iters=1)
    pseudo = compute_pseudo_data(ranked, theta)
    gamma, loglik = _ref_e_step(pseudo, theta)
    return FitResult(theta=theta, loglik=loglik, posterior=gamma,
                     n_outer_iters=result.n_outer_iters + config.refine_iters,
                     converged=result.converged,
                     init_index=result.init_index,
                     copula_loglik=_ref_copula_log_likelihood(pseudo, theta))


def _same_outcome(new, old):
    """Whether a start's outcome equals the reference's bit for bit: the
    same FitResult fields, or the same starvation."""
    if isinstance(old, DegenerateComponent):
        return isinstance(new, DegenerateComponent) and str(new) == str(old)
    return (new.theta == old.theta
            and np.array_equal(new.posterior, old.posterior)
            and new.loglik == old.loglik
            and new.copula_loglik == old.copula_loglik
            and new.n_outer_iters == old.n_outer_iters
            and new.converged == old.converged)


class TestAlternationLoop:
    """The one alternation loop reproduces the two-phase fit bit for bit."""

    # on S1 n=2000 seed 0 this start's reproducible component starves at
    # the third round, while the drawn starts go on
    STARVES = Theta(pi1=0.02, mu1=4.0, sigma1_sq=0.05, rho1=0.1)
    # the theta at which drawn start 4 converges on that set: from it the
    # copula log-likelihood moves by less than OUTER_TOL in the first round,
    # which has no previous round to compare with, so it stops at round 2
    SETTLED = Theta(pi1=0.6340921129279214, mu1=2.6336591067948056,
                    sigma1_sq=1.039483355434417, rho1=0.8342411826826587)

    @pytest.mark.parametrize("scenario", ["S1", "S3", "S4"])
    def test_matches_two_phase_reference(self, scenario):
        data = simulate_dataset(scenario_preset(scenario, n=2000, seed=0))
        ranked = rank_scores(data.scores())
        winner = _ref_multi_start(ranked, FitConfig(rng_seed=0))
        for refine_iters in (0, 10, 50):
            config = FitConfig(rng_seed=0, refine_iters=refine_iters)
            new = fit(ranked, config)
            old = _ref_refine(ranked, winner, config)
            assert new.theta == old.theta, refine_iters
            assert np.array_equal(new.posterior, old.posterior)
            assert new.loglik == old.loglik
            assert new.copula_loglik == old.copula_loglik
            assert new.n_outer_iters == old.n_outer_iters
            assert new.converged == old.converged
            assert new.init_index == old.init_index

    @pytest.fixture(scope="class")
    def starved_set(self):
        """S1 scores, the fit's ten starts with start 3 replaced by one that
        starves and start 7 by one that is already settled, and the
        reference outcome of every start."""
        data = simulate_dataset(scenario_preset("S1", n=2000, seed=0))
        ranked = rank_scores(data.scores())
        rng = np.random.default_rng(0)
        starts = [_random_theta(rng) for _ in range(10)]
        starts[3] = self.STARVES
        starts[7] = self.SETTLED
        outcomes = []
        for idx, start in enumerate(starts):
            try:
                outcomes.append(_ref_fit_single(ranked, start, idx))
            except DegenerateComponent as exc:
                outcomes.append(exc)
        return ranked, starts, outcomes

    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("rows", [1, 3, 10])
    def test_blocks_match_reference(self, rows, threads, starved_set,
                                    monkeypatch):
        ranked, starts, outcomes = starved_set
        assert [i for i, o in enumerate(outcomes)
                if isinstance(o, DegenerateComponent)] == [3]
        assert outcomes[7].converged and outcomes[7].n_outer_iters == 2
        assert any(not isinstance(o, DegenerateComponent) and not o.converged
                   and o.n_outer_iters == idrkit.mixture.OUTER_MAX_ITERS
                   for o in outcomes)
        draws = iter(starts)
        monkeypatch.setattr(idrkit.mixture, "_random_theta",
                            lambda rng: next(draws))
        monkeypatch.setattr(idrkit.mixture, "_BLOCK_ELEMENTS",
                            rows * ranked.n)
        alternate, seen = idrkit.mixture._alternate, {}

        def recorded(ranked, thetas, rounds, tol):
            ends = alternate(ranked, thetas, rounds, tol)
            if rounds == idrkit.mixture.OUTER_MAX_ITERS:
                seen.update({starts.index(t): (len(thetas), end)
                             for t, end in zip(thetas, ends)})
            return ends
        monkeypatch.setattr(idrkit.mixture, "_alternate", recorded)

        config = FitConfig(rng_seed=0, refine_iters=10)
        new = fit(ranked, config, threads=threads)
        assert sorted(seen) == list(range(10))
        assert [seen[i][0] for i in range(10)] == \
            [min(rows, 10 - i // rows * rows) for i in range(10)]
        for idx, old in enumerate(outcomes):
            assert _same_outcome(seen[idx][1], old), idx
        winner = max((replace(o, init_index=i) for i, o in enumerate(outcomes)
                      if not isinstance(o, DegenerateComponent)),
                     key=lambda r: (r.copula_loglik, -r.init_index))
        old = _ref_refine(ranked, winner, config)
        assert _same_outcome(new, old)
        assert new.init_index == old.init_index


class TestLogSumBound:
    """The E-step's log-sum runs through numpy's vectorized exp and log1p,
    not np.logaddexp; the two differ in the last bits only, and the fit's
    answers keep these bounds."""

    @pytest.mark.parametrize("scenario", ["S1", "S3", "S4"])
    def test_fit_matches_logaddexp(self, scenario, monkeypatch):
        data = simulate_dataset(scenario_preset(scenario, n=2000, seed=0))
        ranked = rank_scores(data.scores())
        config = FitConfig(rng_seed=0)
        new = fit(ranked, config)
        monkeypatch.setattr(idrkit.dists, "log_add_exp", np.logaddexp)
        old = fit(ranked, config)
        for name in ("pi1", "mu1", "sigma1_sq", "rho1"):
            assert getattr(new.theta, name) == pytest.approx(
                getattr(old.theta, name), rel=1e-12, abs=0.0), name
        assert new.copula_loglik == pytest.approx(old.copula_loglik,
                                                  rel=1e-12, abs=0.0)
        assert new.init_index == old.init_index
        assert new.n_outer_iters == old.n_outer_iters
        assert new.converged == old.converged
        assert select_at_idr(IdrTable.from_local_idr(1.0 - new.posterior),
                             0.05) == \
            select_at_idr(IdrTable.from_local_idr(1.0 - old.posterior), 0.05)


class TestBlocksAcrossLanes:
    """At n = 1001, not a multiple of the 8 doubles of a SIMD register, a
    start's elements sit at other lane positions in a block than alone, so
    a vectorized exp, log or log1p that rounded by lane position would show
    here.  The starts include TestAlternationLoop's starved and settled
    ones, so rows also leave blocks early."""

    @pytest.fixture(scope="class")
    def alone(self):
        data = simulate_dataset(scenario_preset("S1", n=1001, seed=0))
        ranked = rank_scores(data.scores())
        rng = np.random.default_rng(0)
        starts = [_random_theta(rng) for _ in range(10)]
        starts[3] = TestAlternationLoop.STARVES
        starts[7] = TestAlternationLoop.SETTLED
        return ranked, starts, [
            idrkit.mixture._alternate(ranked, [t], OUTER_MAX_ITERS,
                                      OUTER_TOL)[0] for t in starts]

    @pytest.mark.parametrize("rows", [3, 10])
    def test_blocks_match_one_row_blocks(self, rows, alone):
        ranked, starts, ends = alone
        together = [end for first in range(0, len(starts), rows)
                    for end in idrkit.mixture._alternate(
                        ranked, starts[first:first + rows], OUTER_MAX_ITERS,
                        OUTER_TOL)]
        for idx, (new, old) in enumerate(zip(together, ends)):
            assert _same_outcome(new, old), idx
