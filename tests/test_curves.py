"""Correspondence curves checked against their closed-form special cases."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idrkit.curves import (MAX_GRID_SIZE, _bspline_basis, _psi_on_grid,
                           _smoothing_derivative, correspondence_curve, psi_n)
from idrkit.dists import normal_cdf, normal_log_pdf
from idrkit.errors import DomainError
from idrkit.ranking import ScoredPairSet, rank_scores
from idrkit.simulate import scenario_preset, simulate_dataset


def _comonotone(n, seed=0):
    rng = np.random.default_rng(seed)
    s = rng.normal(size=n)
    return rank_scores(ScoredPairSet(s, 2.0 * s))


def _independent(n, seed=0):
    rng = np.random.default_rng(seed)
    return rank_scores(ScoredPairSet(rng.normal(size=n),
                                     rng.normal(size=n)))


def _psi_reference(ranked, t, v):
    """psi_n(t, v) counted signal by signal: the fraction whose rank on
    replicate 1 exceeds that of the ceil((1 - t) n)-th order statistic, and
    on replicate 2 that of the ceil((1 - v) n)-th, with a threshold of 0 when
    the index is 0.  With max-rank ties, "rank above the order statistic's
    rank" is exactly "score above the order statistic"."""
    thresholds = []
    for ranks, frac in zip(ranked.ranks, (t, v)):
        # guarded against floating-point overshoot of the exact index
        k = max(math.ceil((1.0 - frac) * ranked.n - 1e-9), 0)
        thresholds.append(np.sort(ranks)[k - 1] if k > 0 else 0)
    hit = np.all(ranked.ranks > np.array(thresholds)[:, None], axis=0)
    return np.count_nonzero(hit) / ranked.n


def _tied(n, seed):
    rng = np.random.default_rng(seed)
    with pytest.warns(UserWarning, match="tied"):
        return rank_scores(ScoredPairSet(rng.integers(0, 7, size=n),
                                         rng.integers(0, 5, size=n)))


def _top_block(n, t0, seed=0):
    """Top t0 fraction perfectly rank-correlated, the rest independent."""
    rng = np.random.default_rng(seed)
    m = int(round(t0 * n))
    top = float(n) + np.arange(m, dtype=float)
    rest1 = rng.permutation(n - m).astype(float)
    rest2 = rng.permutation(n - m).astype(float)
    return rank_scores(ScoredPairSet(np.concatenate([top, rest1]),
                                     np.concatenate([top, rest2])))


def _exact_psi_prime(components, t):
    """Psi'(t) of scores drawn from the Gaussian mixture `components`:
    [sum_c pi_c 2 phi(h_c) (1 - Phi(a_c h_c)) / sigma_c] / g(q), where
    q = G^-1(1 - t), h_c = (q - mu_c) / sigma_c and
    a_c = sqrt((1 - rho_c) / (1 + rho_c)); Psi'(1) = 2."""
    pi, mu, rho, var = (np.array([[getattr(c, name)] for c in components])
                        for name in ("pi", "mu", "rho", "sigma_sq"))
    sd = np.sqrt(var)
    lo, hi = np.full(t.size, -40.0), np.full(t.size, 40.0)
    for _ in range(200):  # bisection for q
        mid = 0.5 * (lo + hi)
        below = (pi * normal_cdf((mid - mu) / sd)).sum(axis=0) < 1.0 - t
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    h = (0.5 * (lo + hi) - mu) / sd
    density = pi * np.exp(normal_log_pdf(h)) / sd
    with np.errstate(invalid="ignore"):  # 0 / 0 at t = 1
        prime = (2.0 * density * normal_cdf(-np.sqrt((1.0 - rho)
                                                     / (1.0 + rho)) * h)
                 ).sum(axis=0) / density.sum(axis=0)
    return np.where(t < 1.0, prime, 2.0)


class TestPsiN:
    def test_comonotone_identity(self):
        ranked = _comonotone(100)
        assert psi_n(ranked, 0.37) == pytest.approx(0.37)
        assert psi_n(ranked, 1.0) == pytest.approx(1.0)

    def test_whole_sample(self):
        assert psi_n(_independent(50), 1.0) == pytest.approx(1.0)

    def test_independent_squares(self):
        n = 10_000
        ranked = _independent(n)
        t = np.linspace(0.05, 0.95, 19)
        worst = max(abs(psi_n(ranked, float(ti)) - ti * ti) for ti in t)
        assert worst < 3.0 / np.sqrt(n)

    def test_top_block_closed_form(self):
        # above the block boundary the curve follows
        # (t^2 - 2 t t0 + t0) / (1 - t0); at t0=0.5, t=0.75 that is 0.625
        n, t0 = 10_000, 0.5
        ranked = _top_block(n, t0)
        expect = (0.75 ** 2 - 2 * 0.75 * t0 + t0) / (1.0 - t0)
        assert expect == pytest.approx(0.625)
        assert psi_n(ranked, 0.75) == pytest.approx(expect,
                                                    abs=2.0 / np.sqrt(n))

    def test_rectangular_arguments(self):
        ranked = _independent(2000, seed=4)
        val = psi_n(ranked, 0.3, 0.6)
        assert val == pytest.approx(0.18, abs=3.0 / np.sqrt(2000))

    def test_domain_errors(self):
        ranked = _independent(20)
        for bad in (0.0, -0.2, 1.2):
            with pytest.raises(DomainError):
                psi_n(ranked, bad)
            with pytest.raises(DomainError):
                psi_n(ranked, 0.5, bad)

    @given(st.integers(min_value=2, max_value=60),
           st.floats(min_value=0.01, max_value=1.0),
           st.floats(min_value=0.01, max_value=1.0),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=120, deadline=None)
    def test_frechet_bounds(self, n, t, v, seed):
        ranked = _independent(n, seed=seed)
        val = psi_n(ranked, t, v)
        n_ = ranked.n
        # discretization moves each marginal fraction by at most 1/n,
        # and the lower bound can lose one element per margin
        assert val <= min(t, v) + 1.0 / n_ + 1e-12
        assert val >= max(t + v - 1.0, 0.0) - 2.0 / n_ - 1e-12

    def test_rank_invariance(self):
        rng = np.random.default_rng(11)
        s1, s2 = rng.normal(size=500), rng.normal(size=500)
        a = rank_scores(ScoredPairSet(s1, s2))
        b = rank_scores(ScoredPairSet(np.exp(s1), s2 ** 3))
        for t in (0.1, 0.42, 0.9):
            assert psi_n(a, t) == psi_n(b, t)


class TestCorrespondenceCurve:
    def test_grid_and_shapes(self):
        curve = correspondence_curve(_independent(500), grid_size=50,
                                     spline_df=6.4)
        assert curve.t_grid.shape == (50,)
        assert curve.psi.shape == (50,)
        assert curve.psi_prime.shape == (50,)
        assert curve.t_grid[0] == pytest.approx(1.0 / 50)
        assert curve.t_grid[-1] == pytest.approx(1.0)

    def test_comonotone_derivative_near_one(self):
        curve = correspondence_curve(_comonotone(2000))
        mid = (curve.t_grid > 0.2) & (curve.t_grid < 0.8)
        np.testing.assert_allclose(curve.psi_prime[mid], 1.0, atol=0.1)

    def test_independent_derivative_near_2t(self):
        curve = correspondence_curve(_independent(10_000))
        mid = (curve.t_grid > 0.2) & (curve.t_grid < 0.8)
        np.testing.assert_allclose(curve.psi_prime[mid],
                                   2.0 * curve.t_grid[mid], atol=0.15)

    def test_psi_column_matches_scalar_count(self):
        # the one-pass grid count against the signal-by-signal count, on
        # untied and heavily tied ranks, on a coarse grid and one much finer
        # than n
        for ranked in (_independent(300, seed=9), _tied(300, seed=9)):
            for grid, df in ((20, 5.0), (20_000, 6.4)):
                curve = correspondence_curve(ranked, grid_size=grid,
                                             spline_df=df)
                expect = [_psi_reference(ranked, t, t)
                          for t in curve.t_grid.tolist()]
                assert curve.psi.tolist() == expect

    def test_psi_off_the_diagonal_matches_scalar_count(self):
        # t != v: psi_n at single points and the grid count on two
        # different increasing grids, on untied and heavily tied ranks,
        # including t or v of exactly k / n and of 1
        rng = np.random.default_rng(3)
        for ranked in (_independent(250, seed=3), _tied(250, seed=3)):
            t = np.sort(np.concatenate([rng.uniform(0.001, 1.0, 60),
                                        np.arange(1, 21) / 20]))
            v = np.sort(np.concatenate([rng.uniform(0.001, 1.0, 60),
                                        np.arange(1, 21) / 25]))
            expect = [_psi_reference(ranked, a, b)
                      for a, b in zip(t.tolist(), v.tolist())]
            assert _psi_on_grid(ranked, t, v).tolist() == expect
            for a, b in zip(t.tolist(), v[::-1].tolist()):
                assert psi_n(ranked, a, b) == _psi_reference(ranked, a, b)

    def test_parameter_validation(self):
        ranked = _independent(100)
        with pytest.raises(DomainError):
            correspondence_curve(ranked, grid_size=5)
        # the cap bounds the memory of the grid-sized spline basis
        with pytest.raises(DomainError):
            correspondence_curve(ranked, grid_size=MAX_GRID_SIZE + 1)
        with pytest.raises(DomainError):
            correspondence_curve(ranked, grid_size=100, spline_df=1.0)
        with pytest.raises(DomainError):
            correspondence_curve(ranked, grid_size=100, spline_df=80.0)

    def test_s1_default_grid_curve_is_pinned(self):
        # psi' at t = 0.01, 0.1, 0.25, 0.5, 0.75 and 1, its sum and its
        # largest magnitude, as the trace of the full grid x grid hat matrix
        # chose the penalty; the k x k trace must choose the same one
        ranked = rank_scores(simulate_dataset(
            scenario_preset("S1", n=2000, seed=0)).scores())
        prime = correspondence_curve(ranked).psi_prime
        expect = [0.7626152723396957, 0.8061883071247061, 0.9253163060461549,
                  1.012393678022177, 0.8731582855266213, 1.544107366603371]
        assert prime[[0, 9, 24, 49, 74, 99]] == pytest.approx(expect,
                                                              rel=1e-12)
        assert prime.sum() == pytest.approx(99.75535932695857, rel=1e-12)
        assert np.abs(prime).max() == pytest.approx(1.544107366603371,
                                                    rel=1e-12)

    @pytest.mark.filterwarnings("ignore:.*tied score")
    @pytest.mark.parametrize("name", ["S1", "S2", "S3", "S4"])
    def test_derivative_near_each_presets_exact_one(self, name):
        # on the default grid and df, at both ends and inside; S3's
        # transition at t ~ 0.05 sits inside the first knot steps
        exact = _exact_psi_prime(scenario_preset(name).components,
                                 np.arange(1, 101) / 100)
        for n in (1_000, 10_000):
            for seed in range(5):
                ranked = rank_scores(simulate_dataset(
                    scenario_preset(name, n=n, seed=seed)).scores())
                curve = correspondence_curve(ranked)
                t = curve.t_grid
                err = np.abs(curve.psi_prime - exact)
                inside = (t > 0.05 - 1e-9) & (t < 0.95 + 1e-9)
                assert err[0] < 0.60 and err[-1] < 0.60, (n, seed)
                assert err[inside].max() < 0.30, (n, seed)

    def test_fine_grid_memory_is_bounded(self):
        # a grid x grid hat matrix at 20,000 points would take 3.2 GB; the
        # spline's own arrays (a 20,000 x 43 basis) stay far below this
        bound_bytes = 32 * 2 ** 20
        ranked = _independent(200)
        tracemalloc.start()
        try:
            curve = correspondence_curve(ranked, grid_size=20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert curve.psi_prime.shape == (20_000,)
        assert np.all(np.isfinite(curve.psi_prime))
        assert peak < bound_bytes


class TestSplineBasis:
    """The numpy B-spline basis against scipy's BSpline, the reference."""

    @staticmethod
    def _knots(x, degree=3):
        n_seg = min(x.size - 1, 40)
        step = (x[-1] - x[0]) / n_seg
        return x[0] + step * np.arange(-degree, n_seg + degree + 1)

    @pytest.mark.parametrize("grid", [10, 100, 20_000])
    def test_design_matrix_matches_scipy(self, grid):
        BSpline = pytest.importorskip("scipy.interpolate").BSpline
        x = np.arange(1, grid + 1) / grid
        knots = self._knots(x)
        first, values = _bspline_basis(x, knots, 3)
        ours = np.zeros((grid, knots.size - 4))
        np.put_along_axis(ours, first[:, None] + np.arange(4), values, axis=1)
        ref = BSpline.design_matrix(x, knots, 3).toarray()
        np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-15)
        np.testing.assert_allclose(ours.sum(axis=1), 1.0, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("grid", [10, 100, 20_000])
    def test_derivative_matches_scipy(self, grid):
        # the smoothed derivative of psi_n equals scipy's derivative of the
        # same fitted spline, including at the last knot t = 1
        BSpline = pytest.importorskip("scipy.interpolate").BSpline
        x = np.arange(1, grid + 1) / grid
        knots = self._knots(x)
        y = np.sin(3.0 * x) + 0.1 * np.random.default_rng(grid).normal(
            size=grid)
        ours = _smoothing_derivative(x, y, 5.0)
        # the same penalized fit, solved through scipy's design matrix
        basis = BSpline.design_matrix(x, knots, 3).toarray()
        d2 = np.diff(np.eye(basis.shape[1]), n=2, axis=0)
        btb, penalty = basis.T @ basis, d2.T @ d2
        lo, hi = -12.0, 12.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            edf = np.trace(np.linalg.solve(btb + 10.0 ** mid * penalty, btb))
            lo, hi = (mid, hi) if edf > 5.0 else (lo, mid)
            if abs(edf - 5.0) < 0.05:
                break
        coef = np.linalg.solve(btb + 10.0 ** (0.5 * (lo + hi)) * penalty,
                               basis.T @ y)
        ref = BSpline(knots, coef, 3).derivative()(x)
        assert x[-1] == 1.0
        np.testing.assert_allclose(ours, ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())
