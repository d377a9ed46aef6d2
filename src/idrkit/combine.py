"""Baseline p-value combination: Fisher's combined test and Stouffer's z."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dists import (chisq_survival_even_df, normal_cdf, normal_quantile,
                    probit)
from .errors import DomainError

__all__ = ["CombinedResult", "fisher_combine", "stouffer_combine"]


@dataclass(frozen=True)
class CombinedResult:
    statistic: float
    combined_p: float


def fisher_combine(p1: float, p2: float) -> CombinedResult:
    """Q = -2(log p1 + log p2), referred to the chi-square with 4 df."""
    _check(p1, p2, allow_one=True)
    q = -2.0 * (math.log(p1) + math.log(p2))
    return CombinedResult(q, float(chisq_survival_even_df(q, 4)))


def stouffer_combine(p1: float, p2: float) -> CombinedResult:
    """S = (Phi^{-1}(1-p1) + Phi^{-1}(1-p2)) / sqrt(2), N(0,1) null."""
    _check(p1, p2, allow_one=False)
    # Phi^{-1}(1-p) = -Phi^{-1}(p); the right-hand side stays exact for the
    # tiny p where 1-p rounds to 1.0
    s = -(normal_quantile(p1) + normal_quantile(p2)) / math.sqrt(2.0)
    return CombinedResult(s, float(normal_cdf(-s)))


def _check(p1: float, p2: float, allow_one: bool):
    hi_ok = (lambda p: p <= 1.0) if allow_one else (lambda p: p < 1.0)
    for p in (p1, p2):
        if not (np.isfinite(p) and 0.0 < p and hi_ok(p)):
            raise DomainError(f"p-value {p} outside the admissible range")


def fisher_statistics(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Vectorized Fisher combined p-values for ranking and BH adjustment."""
    q = -2.0 * (np.log(p1) + np.log(p2))
    return np.asarray(chisq_survival_even_df(q, 4))


def stouffer_statistics(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Vectorized Stouffer combined p-values for p in (0, 1]; a p of 1
    gives Phi^{-1}(0) = -inf and so a combined p of 1."""
    s = -(probit(p1) + probit(p2)) / math.sqrt(2.0)
    return np.asarray(normal_cdf(-s))
