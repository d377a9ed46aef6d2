"""Rank transformation: max-rank ties, rescaled ECDF, invariance properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idrkit.errors import DomainError, EmptyInput
from idrkit.ranking import RankedPairSet, ScoredPairSet, rank_scores

finite_scores = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    min_size=2, max_size=100)


def _pairs(s1, s2=None):
    s1 = np.asarray(s1, dtype=float)
    if s2 is None:
        s2 = s1[::-1].copy()
    return ScoredPairSet(s1, np.asarray(s2, dtype=float))


class TestScoredPairSet:
    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            ScoredPairSet(np.array([1.0, np.nan]), np.array([1.0, 2.0]))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DomainError):
            ScoredPairSet(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))

    def test_rejects_single_signal(self):
        with pytest.raises(EmptyInput):
            ScoredPairSet(np.array([1.0]), np.array([2.0]))


class TestRankScores:
    def test_simple_ranks(self):
        ranked = rank_scores(_pairs([10.0, 30.0, 20.0], [1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(ranked.ranks1, [1, 3, 2])
        np.testing.assert_array_equal(ranked.ranks2, [1, 2, 3])

    def test_rescaled_ecdf(self):
        ranked = rank_scores(_pairs([5.0, 1.0, 3.0], [1.0, 2.0, 3.0]))
        np.testing.assert_allclose(ranked.u1, np.array([3, 1, 2]) / 4.0)

    def test_ties_get_max_rank(self):
        with pytest.warns(UserWarning, match="tied"):
            ranked = rank_scores(_pairs([2.0, 2.0, 1.0, 3.0],
                                        [1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_array_equal(ranked.ranks1, [3, 3, 1, 4])
        assert ranked.n_ties == 2

    def test_all_tied(self):
        with pytest.warns(UserWarning):
            ranked = rank_scores(_pairs([7.0, 7.0, 7.0], [1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(ranked.ranks1, [3, 3, 3])

    def test_no_warning_without_ties(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rank_scores(_pairs([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]))

    def test_u_strictly_inside_unit_interval(self):
        ranked = rank_scores(_pairs(np.arange(50.0), np.arange(50.0)))
        assert np.all(ranked.u1 > 0.0) and np.all(ranked.u1 < 1.0)

    @given(finite_scores)
    @settings(max_examples=80, deadline=None)
    def test_monotone_transform_invariance(self, raw):
        # ranks depend only on score order, so any strictly increasing
        # transform leaves them unchanged
        s = np.asarray(raw)
        other = np.arange(float(s.size))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            base = rank_scores(_pairs(s, other))
            # doubling is exact for every float, so order and distinctness
            # are both preserved
            mapped = rank_scores(_pairs(2.0 * s, other))
        np.testing.assert_array_equal(base.ranks1, mapped.ranks1)
        np.testing.assert_allclose(base.u1, mapped.u1)

    @given(finite_scores)
    @settings(max_examples=60, deadline=None)
    def test_swap_symmetry(self, raw):
        s = np.asarray(raw)
        other = np.arange(float(s.size))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ranked = rank_scores(_pairs(s, other))
            flipped = rank_scores(_pairs(other, s))
        swapped = ranked.swapped()
        np.testing.assert_array_equal(swapped.ranks1, flipped.ranks1)
        np.testing.assert_array_equal(swapped.ranks2, flipped.ranks2)

    def test_rank_range(self):
        rng = np.random.default_rng(3)
        s = rng.normal(size=200)
        ranked = rank_scores(_pairs(s, rng.normal(size=200)))
        assert ranked.ranks1.min() >= 1 and ranked.ranks1.max() == 200
        # distinct scores give a permutation of 1..n
        assert sorted(ranked.ranks1) == list(range(1, 201))

    @pytest.mark.parametrize("kind", ["normal", "rounded", "small-integer",
                                      "signed-zero"])
    def test_tie_flags_match_unique_counts(self, kind):
        # a score is flagged when np.unique counts its value more than once
        # on either replicate; -0.0 and 0.0 are one value
        rng = np.random.default_rng(7)
        draws = {"normal": lambda: rng.normal(size=500),
                 "rounded": lambda: np.round(rng.normal(size=500), 2),
                 "small-integer": lambda: rng.integers(0, 9, 500) * 1.0,
                 "signed-zero": lambda: rng.choice([-0.0, 0.0, 1.0, 2.5],
                                                   500)}[kind]
        s1, s2 = draws(), draws()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ranked = rank_scores(_pairs(s1, s2))
        expect = np.zeros(500, dtype=bool)
        for s in (s1, s2):
            _, inverse, counts = np.unique(s, return_inverse=True,
                                           return_counts=True)
            expect |= counts[inverse] > 1
        np.testing.assert_array_equal(ranked.tie_flags, expect)
        assert kind == "normal" or expect.any()
