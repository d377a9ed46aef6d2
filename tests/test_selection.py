"""Local idr, the cumulative running mean, and threshold selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idrkit.errors import DomainError
from idrkit.mixture import FitConfig, Theta, fit
from idrkit.ranking import ScoredPairSet, rank_scores
from idrkit.selection import IdrTable, idr_table, local_idr, select_at_idr
from idrkit.simulate import scenario_preset, simulate_dataset

REF = Theta(pi1=0.65, mu1=2.5, sigma1_sq=1.0, rho1=0.84)


def _table(values):
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="stable")
    s = v[order]
    return IdrTable(original_index=order, local_idr=s,
                    cumulative_idr=np.cumsum(s) / np.arange(1, v.size + 1))


def _correlated_ranked(n=600, seed=0):
    rng = np.random.default_rng(seed)
    latent = rng.normal(size=n)
    s1 = latent + 0.3 * rng.normal(size=n)
    s2 = latent + 0.3 * rng.normal(size=n)
    return rank_scores(ScoredPairSet(s1, s2))


class TestLocalIdr:
    def test_bounds_and_shape(self):
        ranked = _correlated_ranked()
        idr = local_idr(ranked, REF)
        assert idr.shape == (600,)
        assert np.all((idr >= 0.0) & (idr <= 1.0))

    def test_concordant_top_is_more_reproducible(self):
        # signals ranked high by both replicates should look more
        # reproducible than signals ranked high by only one
        ranked = _correlated_ranked(seed=1)
        idr = local_idr(ranked, REF)
        u1, u2 = ranked.u
        both_top = (u1 > 0.9) & (u2 > 0.9)
        discordant = (u1 > 0.9) & (u2 < 0.5)
        if both_top.any() and discordant.any():
            assert idr[both_top].mean() < idr[discordant].mean()


class TestIdrTable:
    def test_hand_computed_running_mean(self):
        table = _table([0.02, 0.01, 0.04, 0.2])
        np.testing.assert_allclose(table.local_idr,
                                   [0.01, 0.02, 0.04, 0.2])
        np.testing.assert_allclose(table.cumulative_idr,
                                   [0.01, 0.015, 0.07 / 3.0, 0.0675])

    def test_cumulative_monotone(self):
        ranked = _correlated_ranked(seed=2)
        table = idr_table(ranked, REF)
        assert np.all(np.diff(table.cumulative_idr) >= -1e-15)

    def test_original_index_roundtrip(self):
        ranked = _correlated_ranked(seed=3)
        idr = local_idr(ranked, REF)
        table = idr_table(ranked, REF)
        np.testing.assert_allclose(idr[table.original_index],
                                   table.local_idr)

    def test_fit_posterior_gives_the_same_table(self):
        # the fit's posterior is the E-step at its final theta, so the table
        # built from it matches a fresh idr_table bit for bit
        data = simulate_dataset(scenario_preset("S1", n=2000, seed=0))
        ranked = rank_scores(data.scores())
        result = fit(ranked, FitConfig(n_inits=3, rng_seed=0))
        from_fit = IdrTable.from_local_idr(1.0 - result.posterior)
        fresh = idr_table(ranked, result.theta)
        np.testing.assert_array_equal(from_fit.original_index,
                                      fresh.original_index)
        np.testing.assert_array_equal(from_fit.local_idr, fresh.local_idr)
        np.testing.assert_array_equal(from_fit.cumulative_idr,
                                      fresh.cumulative_idr)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                    max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_running_mean_property(self, values):
        table = _table(values)
        assert np.all(np.diff(table.cumulative_idr) >= -1e-12)
        assert table.cumulative_idr[0] == pytest.approx(table.local_idr[0])


class TestSelectAtIdr:
    def test_hand_computed_cutoffs(self):
        table = _table([0.02, 0.01, 0.04, 0.2])
        # cumulative: 0.01, 0.015, 0.02333, 0.0675
        assert select_at_idr(table, 0.012) == 1
        assert select_at_idr(table, 0.02) == 2
        assert select_at_idr(table, 0.05) == 3
        assert select_at_idr(table, 0.07) == 4
        assert select_at_idr(table, 0.005) == 0

    def test_mean_below_alpha_even_with_large_tail_member(self):
        # the running mean can admit an individually-large idr value
        table = _table([0.001, 0.001, 0.001, 0.15])
        assert select_at_idr(table, 0.05) == 4

    def test_alpha_validation(self):
        table = _table([0.1])
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(DomainError):
                select_at_idr(table, bad)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                    max_size=50),
           st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=100, deadline=None)
    def test_selection_is_maximal_prefix(self, values, alpha):
        table = _table(values)
        k = select_at_idr(table, alpha)
        if k > 0:
            assert table.cumulative_idr[k - 1] <= alpha
        if k < table.local_idr.size:
            assert table.cumulative_idr[k] > alpha
