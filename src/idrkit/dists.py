"""Probability primitives used throughout the package.

All functions accept scalars or numpy arrays and are vectorized.  This is the
only module that takes functions from scipy.special (Phi, Phi^-1 and the t
distribution), and it loads scipy.special on the first call that needs it,
so the subcommands that never compute them start without it.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .errors import DomainError

__all__ = [
    "normal_cdf",
    "normal_quantile",
    "probit",
    "normal_log_pdf",
    "log_add_exp",
    "t5_cdf",
    "t5_quantile",
    "bh_adjust",
]

_LOG_2PI = math.log(2.0 * math.pi)


@cache
def _special():
    from scipy import special
    return special


def normal_cdf(z):
    """Standard normal CDF, accurate to better than 1e-15 in absolute error."""
    return _special().ndtr(z)


def normal_quantile(p):
    """Inverse of the standard normal CDF.

    Raises DomainError for p outside the open interval (0, 1).
    """
    p_arr = np.asarray(p, dtype=float)
    if np.any(~np.isfinite(p_arr)) or np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0):
        raise DomainError("normal_quantile requires 0 < p < 1")
    out = probit(p_arr)
    return out if out.ndim else float(out)


def probit(p):
    """normal_quantile without its domain check, for callers whose p is
    valid by construction: p = 0 gives -inf and p = 1 gives +inf."""
    return _special().ndtri(p)


def normal_log_pdf(z):
    z = np.asarray(z, dtype=float)
    return -0.5 * (z * z + _LOG_2PI)


def log_add_exp(a, b):
    """log(exp(a) + exp(b)) elementwise, as np.logaddexp computes it.

    np.logaddexp calls the scalar libm exp and log1p once per element; this
    runs the same formula through numpy's vectorized exp and log1p, which is
    several times faster.  The two differ by at most a few ulp of the largest
    of |max(a, b)|, |result| and log 2 (the log1p term lies in [0, log 2]).
    As with np.logaddexp, a and b both -inf (or both +inf) give that
    infinity, and a nan gives nan.
    """
    with np.errstate(invalid="ignore"):
        # a - b is nan where a and b are the same infinity; fmin takes the
        # gap there to 0, which leaves max(a, b) as the sum
        gap = np.fmin(-np.abs(a - b), 0.0)
    return np.maximum(a, b) + np.log1p(np.exp(gap))


def t5_cdf(x):
    """CDF of Student's t distribution with 5 degrees of freedom."""
    out = _special().stdtr(5, np.asarray(x, dtype=float))
    return out if out.ndim else float(out)


def t5_quantile(p):
    """Inverse CDF of Student's t with 5 degrees of freedom."""
    p_arr = np.asarray(p, dtype=float)
    if np.any(~np.isfinite(p_arr)) or np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0):
        raise DomainError("t5_quantile requires 0 < p < 1")
    out = _special().stdtrit(5, p_arr)
    return out if out.ndim else float(out)


def bh_adjust(pvalues):
    """Benjamini-Hochberg step-up adjusted p-values.

    Returns values aligned with the input order, each in [0, 1] and monotone
    nondecreasing when re-sorted by raw p-value.
    """
    p = np.asarray(pvalues, dtype=float)
    if p.ndim != 1:
        raise DomainError("bh_adjust expects a 1-D sequence")
    if np.any(~np.isfinite(p)) or np.any(p < 0.0) or np.any(p > 1.0):
        raise DomainError("p-values must lie in [0, 1]")
    n = p.size
    if n == 0:
        return p.copy()
    order = np.argsort(p, kind="stable")
    ranked = p[order] * n / np.arange(1, n + 1)
    adj = np.minimum.accumulate(ranked[::-1])[::-1]
    adj = np.clip(adj, 0.0, 1.0)
    out = np.empty(n)
    out[order] = adj
    return out
