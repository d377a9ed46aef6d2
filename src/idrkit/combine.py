"""Baseline p-value combination: Fisher's combined test and Stouffer's z,
for two p-values in (0, 1] or two arrays of them."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dists import normal_cdf, probit
from .errors import DomainError

__all__ = ["CombinedResult", "fisher_combine", "stouffer_combine"]


@dataclass(frozen=True)
class CombinedResult:
    """Floats for two p-values given as floats, arrays for two arrays."""
    statistic: float | np.ndarray
    combined_p: float | np.ndarray


def fisher_combine(p, q) -> CombinedResult:
    """Q = -2(log p + log q), referred to the chi-square with 4 df, whose
    upper tail is exp(-Q/2) (1 + Q/2)."""
    statistic = -2.0 * (np.log(_p_value(p)) + np.log(_p_value(q)))
    half = statistic / 2.0
    return _result(statistic, np.exp(-half) * (1.0 + half))


def stouffer_combine(p, q) -> CombinedResult:
    """S = (Phi^{-1}(1-p) + Phi^{-1}(1-q)) / sqrt(2), N(0,1) null.  A p of
    1 gives Phi^{-1}(0) = -inf and so a combined p of 1."""
    # Phi^{-1}(1-p) = -Phi^{-1}(p); the right-hand side stays exact for the
    # tiny p where 1-p rounds to 1.0
    s = -(probit(_p_value(p)) + probit(_p_value(q))) / math.sqrt(2.0)
    return _result(s, normal_cdf(-s))


def _p_value(p) -> np.ndarray:
    """`p` as a float array, every value checked to lie in (0, 1]."""
    p = np.asarray(p, dtype=float)
    bad = p[~((p > 0.0) & (p <= 1.0))]
    if bad.size:
        raise DomainError(f"p-value {bad[0]} outside (0, 1]")
    return p


def _result(statistic, combined_p) -> CombinedResult:
    if np.ndim(statistic) == 0:
        return CombinedResult(float(statistic), float(combined_p))
    return CombinedResult(statistic, combined_p)
