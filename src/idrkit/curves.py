"""Correspondence curves.

psi_n(t) is the empirical survival-copula diagonal: the fraction of signals
ranked in the upper t-fraction of both replicates.  Its smoothed derivative,
taken analytically from a cubic smoothing spline fitted at a requested
equivalent degrees of freedom, localizes where rank agreement breaks down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .ranking import RankedPairSet

__all__ = ["CorrespondenceCurve", "psi_n", "correspondence_curve"]

DEFAULT_GRID_SIZE = 100
DEFAULT_SPLINE_DF = 6.4


@dataclass(frozen=True)
class CorrespondenceCurve:
    t_grid: np.ndarray
    psi: np.ndarray
    psi_prime: np.ndarray
    spline_df: float


def _order_stat_index(frac: float, n: int) -> int:
    # ceil((1 - frac) * n), guarded against floating-point overshoot
    k = math.ceil((1.0 - frac) * n - 1e-9)
    return max(k, 0)


def psi_n(ranked: RankedPairSet, t: float, v: float | None = None) -> float:
    """Fraction of signals above the upper-t threshold on replicate 1 and the
    upper-v threshold on replicate 2 (v defaults to t).

    Computed from ranks only; an index of 0 means the threshold is -inf and
    every signal passes.
    """
    if v is None:
        v = t
    if not (0.0 < t <= 1.0) or not (0.0 < v <= 1.0):
        raise DomainError(f"t and v must lie in (0, 1], got t={t}, v={v}")
    return float(_psi(ranked, np.sort(ranked.ranks1), np.sort(ranked.ranks2),
                      t, v))


def _psi(ranked: RankedPairSet, sorted1: np.ndarray, sorted2: np.ndarray,
         t: float, v: float) -> float:
    k1 = _order_stat_index(t, ranked.n)
    k2 = _order_stat_index(v, ranked.n)
    # rank of the k-th order statistic; with max-rank ties, "score > kth order
    # statistic" is exactly "rank > rank of that order statistic"
    thr1 = sorted1[k1 - 1] if k1 > 0 else 0
    thr2 = sorted2[k2 - 1] if k2 > 0 else 0
    hit = (ranked.ranks1 > thr1) & (ranked.ranks2 > thr2)
    return np.count_nonzero(hit) / ranked.n


def _psi_on_grid(ranked: RankedPairSet, t_grid: np.ndarray) -> np.ndarray:
    s1 = np.sort(ranked.ranks1)
    s2 = np.sort(ranked.ranks2)
    # counts of pairs jointly above each (rank1, rank2) threshold, computed
    # with one pass over the 2-D rank ECDF would be overkill at grid size 100
    return np.array([_psi(ranked, s1, s2, float(t), float(t))
                     for t in t_grid])


def _smoothing_derivative(x: np.ndarray, y: np.ndarray, df: float,
                          df_tol: float = 0.05) -> BSpline:
    """Derivative of a penalized cubic B-spline fitted to (x, y), with the
    penalty weight chosen to hit a requested equivalent degrees of freedom
    (trace of the hat matrix)."""
    from scipy.interpolate import BSpline

    degree = 3
    n_seg = min(x.size - 1, 40)
    inner = np.linspace(x[0], x[-1], n_seg + 1)
    knots = np.concatenate([np.full(degree, x[0]), inner,
                            np.full(degree, x[-1])])
    basis = BSpline.design_matrix(x, knots, degree).toarray()
    n_basis = basis.shape[1]
    if not (2.0 <= df <= n_basis):
        raise DomainError(
            f"spline df {df} outside achievable [2, {n_basis}]")
    d2 = np.diff(np.eye(n_basis), n=2, axis=0)
    btb = basis.T @ basis
    penalty = d2.T @ d2

    def edf(log_lam: float) -> float:
        # trace(B A^-1 B^T) = trace(A^-1 B^T B): a k x k solve, k <= 43,
        # so the grid x grid hat matrix is never formed
        lam = 10.0 ** log_lam
        return float(np.trace(np.linalg.solve(btb + lam * penalty, btb)))

    lo, hi = -12.0, 12.0
    # edf is decreasing in the penalty weight
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        edf_mid = edf(mid)
        if edf_mid > df:
            lo = mid
        else:
            hi = mid
        if abs(edf_mid - df) < df_tol:
            break
    lam = 10.0 ** (0.5 * (lo + hi))
    coef = np.linalg.solve(btb + lam * penalty, basis.T @ y)
    return BSpline(knots, coef, degree).derivative()


def correspondence_curve(ranked: RankedPairSet,
                         grid_size: int = DEFAULT_GRID_SIZE,
                         spline_df: float = DEFAULT_SPLINE_DF) -> CorrespondenceCurve:
    """Evaluate psi_n on a uniform grid and smooth it with a cubic spline.

    psi_prime is the analytic derivative of the fitted spline at the grid
    points.
    """
    if grid_size < 10:
        raise DomainError(f"grid_size must be >= 10, got {grid_size}")
    if not (2.0 <= spline_df <= grid_size / 2.0):
        raise DomainError(
            f"spline_df must lie in [2, grid_size/2], got {spline_df}")
    t_grid = np.arange(1, grid_size + 1) / grid_size
    psi = _psi_on_grid(ranked, t_grid)
    psi_prime = _smoothing_derivative(t_grid, psi, spline_df)(t_grid)
    return CorrespondenceCurve(t_grid, psi, psi_prime, spline_df)
