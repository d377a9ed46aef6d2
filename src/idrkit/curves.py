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
    """psi_n at each t of the increasing t_grid, in one pass over the signals.

    Both thresholds of _psi fall as t grows, so a signal counts at grid index
    g exactly when g is at or past the first index at which its rank clears
    each replicate's threshold; the counts per first index, summed up the
    grid, give psi_n on the whole grid.
    """
    k = np.maximum(np.ceil((1.0 - t_grid) * ranked.n - 1e-9), 0.0).astype(
        np.intp)
    first = []
    for ranks in (ranked.ranks1, ranked.ranks2):
        thr = np.where(k > 0, np.sort(ranks)[k - 1], 0)
        # thr falls along the grid, so the points where a rank does not
        # clear it yet are a prefix of the grid
        first.append(t_grid.size - np.searchsorted(thr[::-1], ranks, "left"))
    counts = np.bincount(np.maximum(*first), minlength=t_grid.size + 1)
    return np.cumsum(counts[:t_grid.size]) / ranked.n


def _bspline_basis(x: np.ndarray, knots: np.ndarray, degree: int):
    """The degree + 1 B-splines on knots that can be nonzero at each x.

    Returns the index of each x's first such B-spline and an
    (x.size, degree + 1) array of their values, from de Boor's recursion
    over the knot interval [t_l, t_l+1) that holds x (the last interval also
    holds the last knot).  The operations run in the order of FITPACK's
    fpbspl, as scipy's BSpline evaluates them.
    """
    last = knots.size - degree - 2
    ell = np.clip(np.searchsorted(knots, x, "right") - 1, degree, last)
    h = np.zeros((x.size, degree + 1))
    h[:, 0] = 1.0
    for j in range(1, degree + 1):
        prev = h[:, :j].copy()
        h[:, 0] = 0.0
        for i in range(1, j + 1):
            # a nonempty interval holds x, so right > left here
            right, left = knots[ell + i], knots[ell + i - j]
            f = prev[:, i - 1] / (right - left)
            h[:, i - 1] += f * (right - x)
            h[:, i] = f * (x - left)
    return ell - degree, h


def _smoothing_derivative(x: np.ndarray, y: np.ndarray, df: float,
                          df_tol: float = 0.05) -> np.ndarray:
    """Derivative at x of a penalized cubic B-spline fitted to (x, y), with
    the penalty weight chosen to hit a requested equivalent degrees of
    freedom (trace of the hat matrix).

    The knots are uniform and run three steps past each end of x (Eilers &
    Marx, Stat. Sci. 1996), so the B-splines at the ends have the shape of
    those inside; knots clamped at the ends bend the derivative there."""
    degree = 3
    n_seg = min(x.size - 1, 40)
    step = (x[-1] - x[0]) / n_seg
    knots = x[0] + step * np.arange(-degree, n_seg + degree + 1)
    n_basis = knots.size - degree - 1
    if not (2.0 <= df <= n_basis):
        raise DomainError(
            f"spline df {df} outside achievable [2, {n_basis}]")
    first, values = _bspline_basis(x, knots, degree)
    basis = np.zeros((x.size, n_basis))
    np.put_along_axis(basis, first[:, None] + np.arange(degree + 1), values,
                      axis=1)
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
    # the derivative is the quadratic spline on the inner knots whose
    # coefficients are the differences of coef over the knot step
    coef = np.diff(coef) / step
    first, values = _bspline_basis(x, knots[1:-1], degree - 1)
    return sum(coef[first + i] * values[:, i] for i in range(degree))


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
    psi_prime = _smoothing_derivative(t_grid, psi, spline_df)
    return CorrespondenceCurve(t_grid, psi, psi_prime, spline_df)
