"""Two-component Gaussian copula mixture and its pseudo-data EM fit.

The reproducible component is an exchangeable bivariate normal with free
(mu1, sigma1_sq, rho1); the irreproducible component is fixed at the standard
bivariate normal with zero correlation.  The marginal mixture CDF G maps the
latent scale to (0, 1); estimation alternates between rebuilding pseudo-data
G^{-1}(u; theta) from the rescaled ranks and maximizing the mixture likelihood
of that pseudo-data by EM.  Pseudo-data is a pair (x, y) of per-replicate
arrays, (n,) or, for a block of thetas, (rows, n); or a (2, n) array.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple, dataclass, field, replace
from functools import lru_cache, partial

import numpy as np

from . import dists
from .errors import DegenerateComponent, DomainError, NumericalUnderflow
from .ranking import RankedPairSet

__all__ = [
    "Theta",
    "FitConfig",
    "FitResult",
    "marginal_mixture_cdf",
    "marginal_mixture_quantile",
    "compute_pseudo_data",
    "log_likelihood",
    "copula_log_likelihood",
    "em_inner",
    "fit",
]

# each field of Theta, in its order: the box that estimation keeps it in,
# then the box its random starts are drawn from, uniformly
THETA_BOXES = {
    "pi1": ((1e-4, 1.0 - 1e-4), (0.05, 0.95)),
    "mu1": ((1e-6, np.inf), (1.0, 4.0)),
    "sigma1_sq": ((1e-6, np.inf), (0.5, 2.0)),
    "rho1": ((1e-4, 0.999), (0.1, 0.9)),
}
(PI1_MIN, PI1_MAX), (RHO1_MIN, RHO1_MAX) = (THETA_BOXES[name][0]
                                            for name in ("pi1", "rho1"))
START_BOXES = tuple(start for _, start in THETA_BOXES.values())
_LOWER, _UPPER = np.array([box for box, _ in THETA_BOXES.values()]).T
_MIN_EFFECTIVE_COUNT = 10.0


@dataclass(frozen=True)
class Theta:
    """Free parameters of the copula mixture.

    The null component is fixed (mu0 = 0, sigma0_sq = 1, rho0 = 0) and
    pi0 = 1 - pi1 is implied.
    """

    pi1: float
    mu1: float
    sigma1_sq: float
    rho1: float

    def __post_init__(self):
        if not (0.0 < self.pi1 < 1.0):
            raise DomainError(f"pi1 must lie in (0, 1), got {self.pi1}")
        if not (self.mu1 > 0.0):
            raise DomainError(f"mu1 must be > 0, got {self.mu1}")
        if not (self.sigma1_sq > 0.0):
            raise DomainError(f"sigma1_sq must be > 0, got {self.sigma1_sq}")
        if not (0.0 < self.rho1 <= 1.0):
            raise DomainError(f"rho1 must lie in (0, 1], got {self.rho1}")

    @property
    def pi0(self) -> float:
        return 1.0 - self.pi1

    @property
    def sigma1(self) -> float:
        return float(np.sqrt(self.sigma1_sq))


# multi-start phase: stop once the copula log-likelihood moves by less than
# OUTER_TOL between refreshes, or after OUTER_MAX_ITERS refreshes
OUTER_TOL = 0.01
OUTER_MAX_ITERS = 100
# the starts run as blocks of about this many pseudo-data elements (rows x
# n), the unit that threads share.  A block saves each round's fixed costs
# at small n (at n = 1e3 a 10-row round took 1.7 ms, a one-row round 0.39
# ms), and the budget bounds its (rows, n) arrays at n >= 1e5, where a
# 10-row round took 239 ms against 142 ms for ten one-row rounds
_BLOCK_ELEMENTS = 10_000


@dataclass(frozen=True)
class FitConfig:
    n_inits: int = 10
    # extra refreshes applied to the winning start; the low-signal regime
    # (small pi1) approaches its self-consistent solution slowly and needs
    # this settling phase, while strong-signal fits barely move during it
    refine_iters: int = 50
    rng_seed: int = 0
    # the one field no answer depends on: threads to share the start blocks
    threads: int = 1

    def __post_init__(self):
        if self.n_inits < 1:
            raise DomainError("n_inits must be >= 1")
        if self.refine_iters < 0:
            raise DomainError("refine_iters must be >= 0")
        if self.threads < 1:
            raise DomainError("threads must be >= 1")


@dataclass(frozen=True)
class FitResult:
    theta: Theta
    loglik: float
    posterior: np.ndarray = field(repr=False)
    n_outer_iters: int = 0
    converged: bool = False
    init_index: int = 0
    copula_loglik: float = -np.inf


class _ThetaBlock:
    """Theta for a block of rows: `values`, (rows, fields) in Theta's field
    order, and each field by name as its (rows, 1) column view; it
    broadcasts against (rows, n) pseudo-data, so each row is computed as its
    own Theta would be.  Public functions wrap a Theta as a one-row block;
    pi0 and sigma1 are made with the columns, as every refresh reads both."""

    def __init__(self, values: np.ndarray):
        self.values = values
        for k, name in enumerate(THETA_BOXES):
            setattr(self, name, values[:, k, None])
        self.pi0, self.sigma1 = 1.0 - self.pi1, np.sqrt(self.sigma1_sq)

    @classmethod
    def of(cls, thetas) -> "_ThetaBlock":
        return cls(np.array([astuple(t) for t in thetas], dtype=float))

    def take(self, rows) -> "_ThetaBlock":
        return _ThetaBlock(self.values[rows])

    def theta(self, row: int) -> Theta:
        return Theta(*self.values[row].tolist())

    @classmethod
    def boxed(cls, values: np.ndarray) -> "_ThetaBlock":
        """The block of `values`, each field moved into its estimation box."""
        return cls(np.minimum(np.maximum(values, _LOWER), _UPPER))


def marginal_mixture_cdf(z, theta: Theta):
    """G(z) = pi1 * Phi((z - mu1)/sigma1) + pi0 * Phi(z)."""
    z = np.asarray(z, dtype=float)
    out = _cdf(z, _ThetaBlock.of([theta])).reshape(z.shape)
    return out if z.ndim else float(out)


def _cdf(z, block: _ThetaBlock):
    return _mixture_cdf(z, (z - block.mu1) / block.sigma1, block)


def _mixture_cdf(z, x1, block: _ThetaBlock):
    """G(z), given x1 = (z - mu1) / sigma1."""
    return block.pi1 * dists.normal_cdf(x1) + block.pi0 * dists.normal_cdf(z)


def _marginal_mixture_pdf(z, block: _ThetaBlock):
    d1, d0, _ = _density_terms(z, block)
    return d1 + d0


def _density_terms(z, block: _ThetaBlock):
    """The two component terms of G'(z), and (z - mu1) / sigma1."""
    x1 = (z - block.mu1) / block.sigma1
    return (block.pi1 / block.sigma1 * np.exp(dists.normal_log_pdf(x1)),
            block.pi0 * np.exp(dists.normal_log_pdf(z)), x1)


_TOL = 1e-12
_SEED_POINTS = 161
_NEWTON_PASSES = 12
# the rounding of G near 1, below which a change of G(z) cannot show
_G_ROUNDING = 2.0 ** -53
# the largest step, in units of min(sigma1, 1), after which Newton's
# predicted next step may stop a point (see _newton_pass)
_STEP_SIGMAS = 1e-6


def marginal_mixture_quantile(u, theta: Theta):
    """Inverse of the marginal mixture CDF.

    A quintic Hermite interpolation of G^{-1} on a grid of _SEED_POINTS
    points seeds Newton's method (see _hermite_seed), and each point stops
    on its own once its step, or the step Newton predicts to follow it, is
    below _TOL (see _newton_pass); points still moving after _NEWTON_PASSES
    passes, or stranded where G' underflows to 0, are recovered by
    bracketing bisection instead.  A point's path depends only on its own u,
    its row's theta and the range of u in the call, which sets the row's
    seed grid, so every row of a block solved together gets the quantiles
    of its own Theta.
    """
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(~np.isfinite(u_arr)) or np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
        raise DomainError("marginal_mixture_quantile requires 0 < u < 1")
    z = _quantile_rows(u_arr, _ThetaBlock.of([theta]))[0]
    return z if np.ndim(u) else float(z[0])


def _bracket(q_lo, q_hi, block: _ThetaBlock):
    """Per-row (lo, hi) columns with G(lo) <= u_lo and G(hi) >= u_hi, given
    their probits q_lo and q_hi: the smaller component quantile of u_lo and
    the larger one of u_hi.  G is a convex combination of the two component
    CDFs, so the pair brackets G^{-1}(u) for every u in [u_lo, u_hi]."""
    return (np.minimum(q_lo, block.mu1 + block.sigma1 * q_lo),
            np.maximum(q_hi, block.mu1 + block.sigma1 * q_hi))


def _quantile_rows(u: np.ndarray, block: _ThetaBlock, ends=None):
    """G^{-1}(u) for every row of block, a (rows, u.size) array; ends are
    the probits of a range that holds every u, whose _bracket each row's
    seed grid spans: those of min(u) and max(u) unless given."""
    if not u.size:
        return np.empty((len(block.pi1), 0))
    if ends is None:
        ends = dists.probit(u.min()), dists.probit(u.max())
    lo, hi = _bracket(*ends, block)
    z = _hermite_seed(u, block, lo, hi)
    # the first Newton pass runs on the whole block; later passes run only on
    # the points not yet done, each with its row's theta as a (points, 1)
    # column.  Those points are also kept in their own u's bracket: where a
    # component is narrower than a grid step, the seed can miss by a whole
    # step and Newton then throws the point to lo or hi
    z, done = _newton_pass(z, u, block, lo, hi)
    if done.all():
        return z
    row, col = np.nonzero(~done)
    points, u = block.take(row), u[col, None]
    q = dists.probit(u)
    lo, hi = _bracket(q, q, points)
    for _ in range(_NEWTON_PASSES - 1):
        if not row.size:
            return z
        z_left, done = _newton_pass(z[row, col, None], u, points, lo, hi)
        z[row, col] = z_left[:, 0]
        keep = ~done[:, 0]
        row, col, u, lo, hi = row[keep], col[keep], u[keep], lo[keep], hi[keep]
        points = points.take(keep)
    # Newton is still moving these points, or G' is 0 there: bisect them
    a, b = lo, hi
    for _ in range(80):
        mid = 0.5 * (a + b)
        under = _cdf(mid, points) < u
        a = np.where(under, mid, a)
        b = np.where(under, b, mid)
    z[row, col] = 0.5 * (a + b)[:, 0]
    return z


def _newton_pass(z, u, block: _ThetaBlock, lo, hi):
    """One Newton step for each point, clipped to [lo, hi], and whether the
    point is done.  Only a point with G' > 0 can be done: where G'
    underflows to 0 its step is 0 and says nothing.  Otherwise it is done
    when its step is below _TOL, or when its step was not clipped, is below
    _STEP_SIGMAS * min(sigma1, 1), and the next step Newton predicts from
    it, |G''/(2G')| step^2, is below _TOL and would move G by less than
    _G_ROUNDING.  A clipped step says nothing of the next one.

    The prediction is the quadratic term of G's expansion; where G'' = 0,
    at an inflection point, the cubic term G''' step^3 / 6 is what moves G.
    Each component's term of G''' is pi_i phi''(x_i) / sigma_i^3 (sigma_0 =
    1), and |phi''| is at most phi(0), so a step below 1e-6 min(sigma1, 1)
    leaves a cubic term under phi(0) 1e-18 / 6 < 7e-20 in G, below
    _G_ROUNDING, and under 1.7e-19 |x^2 - 1| in z, for the larger of the
    two components' standardized |x|: below _TOL for |x| < 2,400."""
    d1, d0, x1 = _density_terms(z, block)
    dens = d1 + d0
    live = dens > 0.0
    slope = np.maximum(dens, 1e-300)
    step = np.where(live, (_mixture_cdf(z, x1, block) - u) / slope, 0.0)
    # the move of G the next step would make, |G''| step^2 / 2, with
    # G''(z) = -(d1 x1 / sigma1 + d0 z) from the same two density terms
    move = 0.5 * np.abs(d1 * x1 / block.sigma1 + d0 * z) * step * step
    target = z - step
    new = np.minimum(np.maximum(target, lo), hi)
    size = np.abs(step)
    reach = _STEP_SIGMAS * np.minimum(block.sigma1, 1.0)
    done = live & ((size < _TOL) | ((move < _TOL * slope)
                                    & (move < _G_ROUNDING) & (new == target)
                                    & (size < reach)))
    return new, done


def _hermite_seed(u: np.ndarray, block: _ThetaBlock, lo, hi) -> np.ndarray:
    """Each row's seed for G^{-1}(u) on grid = np.linspace(lo, hi,
    _SEED_POINTS), over the row's bracket [lo, hi] of every u: on the segment
    [z_k, z_k+1] that brackets u, with s = (u - G(z_k)) / gain in [0, 1] for
    gain = G(z_k+1) - G(z_k), the quintic in s that matches G^{-1}, its
    slope m = gain / G' and its curvature m^2 (-G''/G') at both ends, clipped
    to the segment.  That curvature is the second derivative
    -gain^2 G''/G'^3 of G^{-1} in s, written through m because G'^3
    underflows where G' is small.  A term that still overflows makes the
    quintic non-finite, and the clip (np.fmax, then np.fmin) puts such a
    seed inside the segment."""
    last = _SEED_POINTS - 1
    grid = np.linspace(lo[:, 0], hi[:, 0], _SEED_POINTS, axis=1)
    d1, d0, x1 = _density_terms(grid, block)
    cdf = _mixture_cdf(grid, x1, block)
    dens = np.maximum(d1 + d0, 1e-300)
    index = np.arange(float(_SEED_POINTS))
    at = np.array([np.interp(u, c, index) for c in cdf])
    k = np.minimum(np.floor(at), last - 1.0)
    s = at - k
    # per segment, z_k + s (c1 + s (c2 + s (c3 + s (c4 + s c5)))): for the
    # segment's width rise, end slopes m0, m1 and end curvatures a0, a1 in
    # s, c1 = m0 and c2 = a0 / 2; each u takes its segment's coefficients,
    # indexed into the flattened (rows, segments) arrays
    bend = (d1 * x1 / block.sigma1 + d0 * grid) / dens  # -G''/G'
    rise, gain = grid[:, 1:] - grid[:, :-1], cdf[:, 1:] - cdf[:, :-1]
    m0, m1 = gain / dens[:, :-1], gain / dens[:, 1:]
    seg = (k + np.arange(len(k))[:, None] * last).astype(np.intp)
    with np.errstate(over="ignore", invalid="ignore"):
        a0, a1 = m0 * m0 * bend[:, :-1], m1 * m1 * bend[:, 1:]
        z0, c1, c2, c3, c4, c5, rise = (c.take(seg) for c in (
            grid[:, :-1], m0, 0.5 * a0,
            10.0 * rise - 6.0 * m0 - 4.0 * m1 - 1.5 * a0 + 0.5 * a1,
            -15.0 * rise + 8.0 * m0 + 7.0 * m1 + 1.5 * a0 - a1,
            6.0 * rise - 3.0 * (m0 + m1) - 0.5 * (a0 - a1), rise))
        poly = s * (c1 + s * (c2 + s * (c3 + s * (c4 + s * c5))))
    return z0 + np.fmin(np.fmax(poly, 0.0), rise)


def compute_pseudo_data(ranked: RankedPairSet, theta: Theta) -> tuple:
    """Map each replicate's rescaled ECDF values through G^{-1}(.; theta).

    u = rank/(n+1) takes its values on the grid {k/(n+1)}, so G^{-1} is
    solved once on that grid and gathered by rank for every replicate.
    """
    z = _rank_grid_quantiles(ranked, _ThetaBlock.of([theta]))
    return _by_ranks(z[0], ranked)


@lru_cache(maxsize=8)
def _rank_grid(n: int):
    """The rank grid {k/(n+1)} of n signals, read-only, and the probits of
    its ends: the same for every refresh of every fit on n signals."""
    u = np.arange(1, n + 1) / (n + 1.0)
    u.flags.writeable = False
    return u, (dists.probit(u[0]), dists.probit(u[-1]))


def _rank_grid_quantiles(ranked: RankedPairSet, block: _ThetaBlock):
    """G^{-1} of every row of block on the rank grid {k/(n+1)}, a (rows, n)
    array.  The grid lies in (0, 1) by construction, so the solve skips
    marginal_mixture_quantile's domain check."""
    u, ends = _rank_grid(ranked.n)
    return _quantile_rows(u, block, ends)


def _by_ranks(grid_values: np.ndarray, ranked: RankedPairSet) -> tuple:
    """Values on the rank grid gathered by each replicate's ranks, each by
    its own take into its own C-ordered (rows, n) array, as the per-row
    sums need to match those of each row alone (z[:, ranks - 1] would be
    F-ordered).  A fit's minor page faults are the heap trimmed and regrown
    between rounds, set by the size and order of a round's allocations; one
    stacked (2, rows, n) gather measured no fewer."""
    return tuple(grid_values.take(index, axis=-1) for index in ranked.index)


def _sum_difference(pseudo) -> tuple:
    """(s, d2) = (x + y, (x - y)^2) of pseudo-data (x, y): the form in
    which the densities and the M-step read it."""
    x, y = pseudo
    return x + y, (x - y) ** 2


def _refresh(ranked: RankedPairSet, block: _ThetaBlock):
    """Pseudo-data of every row of block, in the (s, d2) form of
    _sum_difference that the next E-step and M-step share, and the sum of
    its log marginal densities per row, both evaluated once per rank-grid
    point and gathered by rank.  The pseudo-data is gathered last, while
    log_g is still held: with log_g freed first, or the pseudo-data
    gathered before the density pass, an S1 fit at n = 1e4 took about twice
    the minor page faults and ran 5-9 % slower."""
    z = _rank_grid_quantiles(ranked, block)
    log_g = np.log(_marginal_mixture_pdf(z, block))
    marg = np.add(*_by_ranks(log_g, ranked))
    if not np.isfinite(marg).all():
        raise NumericalUnderflow("marginal mixture density underflowed")
    return _sum_difference(_by_ranks(z, ranked)), marg.sum(axis=-1)


_LOG_2PI = math.log(2.0 * math.pi)


def _component_log_densities(sd, block: _ThetaBlock):
    """Log densities of the null component, the standard bivariate normal,
    and of the reproducible one, whose rho1 a public Theta may hold at 1,
    at pseudo-data in the (s, d2) form of _sum_difference.  Both are
    diagonal in s = x + y and d = x - y, with no term that mixes the
    replicates: the reproducible one gives s the variance 2P and d the
    variance 2M, for P = sigma1_sq (1 + rho1) and M = sigma1_sq (1 - rho1)."""
    s, d2 = sd
    log_h0 = -0.25 * (s * s + d2) - _LOG_2PI
    rho1 = np.minimum(block.rho1, RHO1_MAX)
    plus, minus = (block.sigma1_sq * (1.0 + rho1),
                   block.sigma1_sq * (1.0 - rho1))
    r = s - 2.0 * block.mu1
    log_h1 = (-0.25 * (r * r / plus + d2 / minus)
              - 0.5 * np.log(plus * minus) - _LOG_2PI)
    return log_h0, log_h1


def _e_step(sd, block: _ThetaBlock):
    """Posteriors, (rows, n), and the pseudo-data log-likelihood of each
    row, in one density pass over pseudo-data in the (s, d2) form."""
    log_h0, log_h1 = _component_log_densities(sd, block)
    a1 = np.log(block.pi1) + log_h1
    norm = dists.log_add_exp(np.log(block.pi0) + log_h0, a1)
    if not np.isfinite(norm).all():
        raise NumericalUnderflow("mixture density underflowed to zero")
    return np.exp(a1 - norm), norm.sum(axis=-1)


def _log_marginals(pseudo, block: _ThetaBlock):
    """Summed log marginal densities of the pseudo-data, one sum per row."""
    marg = np.add(*(np.log(_marginal_mixture_pdf(z, block))
                     for z in pseudo))
    if not np.isfinite(marg).all():
        raise NumericalUnderflow("marginal mixture density underflowed")
    return marg.sum(axis=-1)


def log_likelihood(pseudo, theta: Theta) -> float:
    """Mixture log-likelihood of the pseudo-data, evaluated in log space."""
    return float(_e_step(_sum_difference(pseudo),
                         _ThetaBlock.of([theta]))[1][0])


def copula_log_likelihood(pseudo, theta: Theta) -> float:
    """Joint log-likelihood with the marginal densities divided out.

    Unlike the raw pseudo-data likelihood it stays comparable across theta,
    although the pseudo-data moves with theta, so it ranks fitted starts.
    """
    block = _ThetaBlock.of([theta])
    return float(_e_step(_sum_difference(pseudo), block)[1][0]
                 - _log_marginals(pseudo, block)[0])


def _starved(total: float) -> DegenerateComponent:
    return DegenerateComponent(
        f"effective count of the reproducible component is {total:.3f}")


def _m_step(sd, gamma: np.ndarray, total: np.ndarray) -> _ThetaBlock:
    """Theta rows maximizing the expected complete-data likelihood of
    pseudo-data in the (s, d2) form given the (rows, n) posteriors, whose
    row sums `total` the caller has checked for a starved reproducible
    component."""
    s, d2 = sd
    pi1 = total / gamma.shape[-1]
    mu1 = (gamma * s).sum(axis=-1, keepdims=True) / (2.0 * total)
    r = s - 2.0 * mu1
    # P and M of _component_log_densities
    plus = (gamma * r * r).sum(axis=-1, keepdims=True) / (2.0 * total)
    minus = (gamma * d2).sum(axis=-1, keepdims=True) / (2.0 * total)
    sigma1_sq = np.maximum(0.5 * (plus + minus),
                           THETA_BOXES["sigma1_sq"][0][0])
    rho1 = (plus - minus) / (2.0 * sigma1_sq)
    return _ThetaBlock.boxed(np.concatenate((pi1, mu1, sigma1_sq, rho1), 1))


def em_inner(pseudo, theta0: Theta, tol: float = 1e-4,
             max_iters: int = 30):
    """EM on fixed pseudo-data.

    Returns (theta, posteriors, loglik_trace).  The posteriors and the last
    trace entry come from the last E-step run, so they belong to the theta
    that went into the final M-step, not to the returned one.  The trace is
    nondecreasing.  Raises DegenerateComponent when the reproducible
    component starves.
    """
    if max_iters < 1:
        raise DomainError("max_iters must be >= 1")
    block = _ThetaBlock.boxed(_ThetaBlock.of([theta0]).values)
    sd = _sum_difference(pseudo)
    trace: list[float] = []
    for _ in range(max_iters):
        gamma, loglik = _e_step(sd, block)
        trace.append(float(loglik[0]))
        total = gamma.sum(axis=-1, keepdims=True)
        if total[0, 0] < _MIN_EFFECTIVE_COUNT:
            raise _starved(total[0, 0])
        block = _m_step(sd, gamma, total)
        if len(trace) >= 2 and trace[-1] - trace[-2] < tol:
            break
    return block.theta(0), gamma[0], trace


def _random_theta(rng: np.random.Generator) -> Theta:
    return Theta(*(float(rng.uniform(lo, hi)) for lo, hi in START_BOXES))


def _alternate(ranked: RankedPairSet, thetas: list[Theta], rounds: int,
               tol: float) -> list[FitResult | DegenerateComponent]:
    """Up to `rounds` rounds of the alternation from each of `thetas`, run
    together as the rows of one block.

    A round runs the M-step from the current posteriors, refreshes the
    pseudo-data at the new theta and makes one E-step pass there for the
    next posteriors and both log-likelihoods.  A row stops once its copula
    log-likelihood moves by less than tol (the raw pseudo-data likelihood is
    not comparable across refreshes; tol = 0 never stops), and one whose
    reproducible component starves ends as that DegenerateComponent.  Every
    pass is elementwise or a per-row reduction and a stopped row leaves the
    block, so each row ends exactly as it would alone.
    """
    block = _ThetaBlock.of(thetas)
    rows = np.arange(len(thetas))  # where each row of the block came from
    out: list = [None] * len(thetas)
    prev_cop = -np.inf
    for n in range(rounds + 1):
        if n:
            block = _m_step(sd, gamma, total)
        sd, log_marg = _refresh(ranked, block)
        gamma, loglik = _e_step(sd, block)
        cop = loglik - log_marg
        total = gamma.sum(axis=-1, keepdims=True)
        converged = np.abs(cop - prev_cop) < tol
        stop = (converged | (total[:, 0] < _MIN_EFFECTIVE_COUNT)
                if n < rounds else np.ones(len(rows), dtype=bool))
        for i in np.flatnonzero(stop):
            out[rows[i]] = (
                FitResult(theta=block.theta(i), loglik=float(loglik[i]),
                          posterior=gamma[i], n_outer_iters=n,
                          converged=bool(converged[i]),
                          copula_loglik=float(cop[i]))
                if converged[i] or n == rounds else _starved(total[i, 0]))
        keep = ~stop
        if not keep.all():
            if not keep.any():
                break
            rows, gamma, total, cop = (rows[keep], gamma[keep], total[keep],
                                       cop[keep])
            sd = tuple(v[keep] for v in sd)
        # round 1 is not compared with the starting theta: the stop rule
        # first applies between two refreshes that followed an M-step
        prev_cop = cop if n else -np.inf
    return out


def fit(ranked: RankedPairSet, config: FitConfig | None = None) -> FitResult:
    """Fit the copula mixture from several random starts.

    Returns the start reaching the highest copula log-likelihood (the joint
    likelihood with the marginals divided out), ties broken by lowest start
    index.  Starts whose reproducible component starves are discarded; if
    every start is discarded the error propagates.  The winner then settles
    for config.refine_iters further rounds with no stop rule.  A result with
    converged=False means the winning start never met the outer tolerance,
    or the settled theta has a field on an edge of its THETA_BOXES
    estimation box, where the box and not the likelihood stopped it.

    The starts run in blocks of _BLOCK_ELEMENTS // n of them (at least one),
    each block one batched alternation; config.threads > 1 spreads the
    blocks over that many threads, and a fit of one block runs on the
    calling thread.  No start's result depends on its block or on threads.
    """
    if config is None:
        config = FitConfig()
    if ranked.n < 50:
        warnings.warn(f"fitting on only {ranked.n} signals; estimates may be "
                      "unstable below n = 50", stacklevel=2)
    rng = np.random.default_rng(config.rng_seed)
    starts = [_random_theta(rng) for _ in range(config.n_inits)]
    size = max(1, _BLOCK_ELEMENTS // ranked.n)
    blocks = [starts[i:i + size] for i in range(0, config.n_inits, size)]
    run = partial(_alternate, ranked, rounds=OUTER_MAX_ITERS, tol=OUTER_TOL)
    if config.threads > 1 and len(blocks) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            block_ends = list(pool.map(run, blocks))
    else:
        block_ends = map(run, blocks)
    ends = [end for block in block_ends for end in block]
    kept = [replace(end, init_index=idx) for idx, end in enumerate(ends)
            if isinstance(end, FitResult)]
    if not kept:
        raise DegenerateComponent(
            "every random start lost its reproducible component")
    best = max(kept, key=lambda r: (r.copula_loglik, -r.init_index))
    settled, = _alternate(ranked, [best.theta], config.refine_iters, 0.0)
    if isinstance(settled, DegenerateComponent):
        raise settled
    theta = np.array(astuple(settled.theta))
    clamped = bool(np.any((theta == _LOWER) | (theta == _UPPER)))
    return replace(settled,
                   n_outer_iters=best.n_outer_iters + settled.n_outer_iters,
                   converged=best.converged and not clamped,
                   init_index=best.init_index)
