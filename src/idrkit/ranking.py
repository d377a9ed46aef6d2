"""Rank transformation of paired scores.

Converts raw replicate scores into ranks and rescaled empirical CDF values,
the shared substrate for the correspondence curves and the copula mixture fit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EmptyInput

__all__ = ["ScoredPairSet", "RankedPairSet", "rank_scores"]


@dataclass(frozen=True)
class ScoredPairSet:
    """n signals scored on two replicates.

    Scores must be finite; NaN or infinity is rejected at construction.
    """

    scores1: np.ndarray
    scores2: np.ndarray

    def __post_init__(self):
        s1 = np.asarray(self.scores1, dtype=float)
        s2 = np.asarray(self.scores2, dtype=float)
        object.__setattr__(self, "scores1", s1)
        object.__setattr__(self, "scores2", s2)
        if s1.ndim != 1 or s2.ndim != 1 or s1.size != s2.size:
            raise DomainError("scores1 and scores2 must be 1-D of equal length")
        if s1.size < 2:
            raise EmptyInput(f"need at least 2 signals, got {s1.size}")
        if not (np.all(np.isfinite(s1)) and np.all(np.isfinite(s2))):
            raise DomainError("scores must be finite")

    @property
    def n(self) -> int:
        return int(self.scores1.size)


@dataclass(frozen=True)
class RankedPairSet:
    """Ranks (1..n, ties at their maximum rank) and rescaled ECDF values.

    u_j = (n/(n+1)) * Fhat_j, strictly inside (0, 1).
    """

    ranks1: np.ndarray
    ranks2: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    tie_flags: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return int(self.ranks1.size)

    @property
    def n_ties(self) -> int:
        return int(np.count_nonzero(self.tie_flags))


def _ranks_and_ties(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rank(x) = #{k : x_k <= x}, so ties share their maximum rank, and
    whether each score is tied, both from one sort."""
    ordered = np.sort(scores)
    hi = np.searchsorted(ordered, scores, side="right")
    return hi.astype(np.int64), \
        hi - np.searchsorted(ordered, scores, side="left") > 1


def rank_scores(pairs: ScoredPairSet) -> RankedPairSet:
    """Rank both coordinates and rescale the empirical CDF by n/(n+1).

    Tied scores receive their maximum rank and are flagged; a warning with
    the tie count is emitted so callers can judge whether ranks are trusty.
    """
    n = pairs.n
    r1, tie1 = _ranks_and_ties(pairs.scores1)
    r2, tie2 = _ranks_and_ties(pairs.scores2)
    u1 = r1 / (n + 1.0)
    u2 = r2 / (n + 1.0)
    tie_flags = tie1 | tie2
    n_ties = int(np.count_nonzero(tie_flags))
    if n_ties:
        warnings.warn(
            f"{n_ties} of {n} signals share a tied score on at least one "
            "replicate; tied values were assigned their maximum rank",
            stacklevel=2,
        )
    return RankedPairSet(r1, r2, u1, u2, tie_flags)
