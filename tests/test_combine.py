"""Fisher and Stouffer p-value combination baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from idrkit.combine import (fisher_combine, fisher_statistics,
                            stouffer_combine, stouffer_statistics)
from idrkit.errors import DomainError

p_strategy = st.floats(min_value=1e-12, max_value=1.0 - 1e-12)


class TestFisher:
    def test_hand_computed_example(self):
        res = fisher_combine(0.05, 0.05)
        assert res.statistic == pytest.approx(11.9829, abs=1e-4)
        # exact survival value for chi^2 with 4 df
        q = res.statistic
        assert res.combined_p == pytest.approx(
            np.exp(-q / 2.0) * (1.0 + q / 2.0), rel=1e-12)
        assert res.combined_p == pytest.approx(0.0175, abs=5e-5)

    def test_uniform_null_is_uniform(self):
        # under independent uniform p-values the combined p is uniform;
        # verify by Kolmogorov-Smirnov on a seeded sample
        rng = np.random.default_rng(0)
        p1, p2 = rng.random(4000), rng.random(4000)
        combined = fisher_statistics(p1, p2)
        d, p = stats.kstest(combined, "uniform")
        assert p > 0.01

    def test_allows_p_equal_one(self):
        res = fisher_combine(1.0, 1.0)
        assert res.statistic == pytest.approx(0.0)
        assert res.combined_p == pytest.approx(1.0)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            fisher_combine(0.0, 0.5)

    @given(p_strategy, p_strategy)
    @settings(max_examples=150, deadline=None)
    def test_symmetry_and_bounds(self, p1, p2):
        a = fisher_combine(p1, p2)
        b = fisher_combine(p2, p1)
        assert a.combined_p == pytest.approx(b.combined_p, rel=1e-12)
        assert 0.0 <= a.combined_p <= 1.0

    def test_vectorized_matches_scalar(self):
        p1 = np.array([0.01, 0.2, 0.9])
        p2 = np.array([0.5, 0.03, 0.99])
        vec = fisher_statistics(p1, p2)
        for i in range(3):
            assert vec[i] == pytest.approx(
                fisher_combine(p1[i], p2[i]).combined_p, rel=1e-12)


class TestStouffer:
    def test_hand_computed_example(self):
        res = stouffer_combine(0.05, 0.05)
        assert res.statistic == pytest.approx(2.32617, abs=1e-5)
        assert res.combined_p == pytest.approx(0.01000, abs=1e-5)

    def test_equal_inputs_strengthen_evidence(self):
        # combining two equal one-sided p-values sharpens them
        for p in (0.2, 0.05, 0.01):
            assert stouffer_combine(p, p).combined_p < p

    def test_rejects_boundary(self):
        with pytest.raises(DomainError):
            stouffer_combine(1.0, 0.5)
        with pytest.raises(DomainError):
            stouffer_combine(0.5, 0.0)

    def test_uniform_null_is_uniform(self):
        rng = np.random.default_rng(1)
        p1, p2 = rng.random(4000), rng.random(4000)
        combined = stouffer_statistics(p1, p2)
        d, p = stats.kstest(combined, "uniform")
        assert p > 0.01

    @given(p_strategy, p_strategy)
    @settings(max_examples=150, deadline=None)
    def test_symmetry_and_bounds(self, p1, p2):
        a = stouffer_combine(p1, p2)
        b = stouffer_combine(p2, p1)
        assert a.combined_p == pytest.approx(b.combined_p, rel=1e-9)
        assert 0.0 <= a.combined_p <= 1.0

    def test_vectorized_matches_scalar(self):
        p1 = np.array([0.01, 0.2, 0.9])
        p2 = np.array([0.5, 0.03, 0.99])
        vec = stouffer_statistics(p1, p2)
        for i in range(3):
            assert vec[i] == pytest.approx(
                stouffer_combine(p1[i], p2[i]).combined_p, rel=1e-9)

    def test_vectorized_p_of_one_combines_to_one(self):
        # Phi^{-1}(1 - 1) = -inf, whatever the other replicate says
        combined = stouffer_statistics(np.array([1.0, 1e-12, 1.0]),
                                       np.array([1e-12, 1.0, 1.0]))
        assert np.array_equal(combined, [1.0, 1.0, 1.0])


class TestAgreement:
    def test_methods_agree_on_strong_signals(self):
        # both methods call a very small pair very small
        f = fisher_combine(1e-6, 1e-6).combined_p
        s = stouffer_combine(1e-6, 1e-6).combined_p
        assert f < 1e-4 and s < 1e-4
