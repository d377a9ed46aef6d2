"""Rank transformation of paired scores.

Converts raw replicate scores into ranks and rescaled empirical CDF values,
the shared substrate for the correspondence curves and the copula mixture fit.
Each replicate is one row of a (2, n) array.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, EmptyInput

__all__ = ["ScoredPairSet", "RankedPairSet", "rank_scores"]


@dataclass(frozen=True, init=False)
class ScoredPairSet:
    """n signals scored on two replicates: `scores`, one row per replicate.

    Scores must be finite; NaN or infinity is rejected at construction.
    """

    scores: np.ndarray

    def __init__(self, scores1, scores2):
        rows = [np.asarray(s, dtype=float) for s in (scores1, scores2)]
        if rows[0].ndim != 1 or rows[0].shape != rows[1].shape:
            raise DomainError("scores1 and scores2 must be 1-D of equal length")
        scores = np.stack(rows)
        if scores.shape[1] < 2:
            raise EmptyInput(f"need at least 2 signals, got {scores.shape[1]}")
        if not np.all(np.isfinite(scores)):
            raise DomainError("scores must be finite")
        object.__setattr__(self, "scores", scores)


@dataclass(frozen=True)
class RankedPairSet:
    """Ranks (1..n, ties at their maximum rank), one row per replicate, and
    whether each signal is tied on at least one replicate."""

    ranks: np.ndarray
    tie_flags: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return int(self.ranks.shape[1])

    @property
    def u(self) -> np.ndarray:
        """Rescaled ECDF values rank/(n+1) = (n/(n+1)) Fhat, inside (0, 1)."""
        return self.ranks / (self.n + 1.0)

    @cached_property
    def index(self) -> np.ndarray:
        """ranks - 1: each signal's zero-based position on the rank grid."""
        return self.ranks - 1

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
    """Rank each replicate's scores.

    Tied scores receive their maximum rank and are flagged; a warning with
    the tie count is emitted so callers can judge whether ranks are trusty.
    """
    ranks, ties = zip(*map(_ranks_and_ties, pairs.scores))
    ranked = RankedPairSet(np.stack(ranks), np.logical_or(*ties))
    if ranked.n_ties:
        warnings.warn(
            f"{ranked.n_ties} of {ranked.n} signals share a tied score on at "
            "least one replicate; tied values were assigned their maximum "
            "rank", stacklevel=2)
    return ranked
