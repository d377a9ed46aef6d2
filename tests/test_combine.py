"""Fisher and Stouffer p-value combination baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from idrkit.combine import fisher_combine, stouffer_combine
from idrkit.errors import DomainError

p_strategy = st.floats(min_value=1e-12, max_value=1.0 - 1e-12)


def _assert_array_matches_scalar(combine):
    # the array form is the scalar form applied per element, bit for bit,
    # down to p of 1 and the smallest subnormal
    rng = np.random.default_rng(2)
    p1 = np.concatenate([rng.random(2000), 10.0 ** -rng.uniform(0, 300, 200),
                         [1.0, 5e-324, 1.0]])
    p2 = np.concatenate([rng.random(2000), 10.0 ** -rng.uniform(0, 300, 200),
                         [1.0, 0.5, 1e-300]])
    vec = combine(p1, p2)
    scalar = [combine(float(a), float(b)) for a, b in zip(p1, p2)]
    assert all(type(r.combined_p) is float for r in scalar)
    assert np.array_equal(vec.statistic, [r.statistic for r in scalar])
    assert np.array_equal(vec.combined_p, [r.combined_p for r in scalar])


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
        combined = fisher_combine(p1, p2).combined_p
        d, p = stats.kstest(combined, "uniform")
        assert p > 0.01

    def test_allows_p_equal_one(self):
        res = fisher_combine(1.0, 1.0)
        assert res.statistic == pytest.approx(0.0)
        assert res.combined_p == pytest.approx(1.0)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            fisher_combine(0.0, 0.5)
        with pytest.raises(DomainError):
            fisher_combine(np.array([0.5, 0.5]), np.array([0.5, 0.0]))

    def test_chi2_4_closed_form(self):
        # the combined p is the chi^2_4 upper tail of Q, exp(-Q/2)(1 + Q/2)
        for p1, p2 in ((1.0, 1.0), (0.7, 0.6), (0.2, 0.3), (0.05, 0.05),
                       (1e-6, 1e-4)):
            res = fisher_combine(p1, p2)
            assert res.combined_p == pytest.approx(
                stats.chi2.sf(res.statistic, 4), rel=1e-12)

    @given(p_strategy, p_strategy)
    @settings(max_examples=150, deadline=None)
    def test_symmetry_and_bounds(self, p1, p2):
        a = fisher_combine(p1, p2)
        b = fisher_combine(p2, p1)
        assert a.combined_p == pytest.approx(b.combined_p, rel=1e-12)
        assert 0.0 <= a.combined_p <= 1.0

    def test_vectorized_matches_scalar(self):
        _assert_array_matches_scalar(fisher_combine)


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
        # a p of 1 is admissible, as for Fisher, and combines to 1
        assert stouffer_combine(1.0, 0.5).combined_p == 1.0
        with pytest.raises(DomainError):
            stouffer_combine(0.5, 0.0)

    def test_uniform_null_is_uniform(self):
        rng = np.random.default_rng(1)
        p1, p2 = rng.random(4000), rng.random(4000)
        combined = stouffer_combine(p1, p2).combined_p
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
        _assert_array_matches_scalar(stouffer_combine)

    def test_vectorized_p_of_one_combines_to_one(self):
        # Phi^{-1}(1 - 1) = -inf, whatever the other replicate says
        combined = stouffer_combine(np.array([1.0, 1e-12, 1.0]),
                                    np.array([1e-12, 1.0, 1.0])).combined_p
        assert np.array_equal(combined, [1.0, 1.0, 1.0])


class TestAgreement:
    def test_methods_agree_on_strong_signals(self):
        # both methods call a very small pair very small
        f = fisher_combine(1e-6, 1e-6).combined_p
        s = stouffer_combine(1e-6, 1e-6).combined_p
        assert f < 1e-4 and s < 1e-4
