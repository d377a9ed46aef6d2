"""Two-component Gaussian copula mixture and its pseudo-data EM fit.

The reproducible component is an exchangeable bivariate normal with free
(mu1, sigma1_sq, rho1); the irreproducible component is fixed at the standard
bivariate normal with zero correlation.  The marginal mixture CDF G maps the
latent scale to (0, 1); estimation alternates between rebuilding pseudo-data
G^{-1}(u; theta) from the rescaled ranks and maximizing the mixture likelihood
of that pseudo-data by EM.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import dists
from .errors import DegenerateComponent, DomainError, NumericalUnderflow
from .ranking import RankedPairSet

__all__ = [
    "Theta",
    "PseudoData",
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

PI1_MIN = 1e-4
PI1_MAX = 1.0 - 1e-4
RHO1_MIN = 1e-4
RHO1_MAX = 0.999
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

    def clamped(self) -> "Theta":
        """Clamp pi1 and rho1 to their estimation-time boxes."""
        return Theta(
            pi1=float(np.clip(self.pi1, PI1_MIN, PI1_MAX)),
            mu1=max(self.mu1, 1e-6),
            sigma1_sq=max(self.sigma1_sq, 1e-6),
            rho1=float(np.clip(self.rho1, RHO1_MIN, RHO1_MAX)),
        )


@dataclass(frozen=True)
class PseudoData:
    """Latent-scale pseudo-observations G^{-1}(u; theta), one pair per signal."""

    z1: np.ndarray
    z2: np.ndarray

    @property
    def n(self) -> int:
        return int(self.z1.size)


# outer loop: stop once the copula log-likelihood moves by less than
# OUTER_TOL between refreshes, or after OUTER_MAX_ITERS refreshes
OUTER_TOL = 0.01
OUTER_MAX_ITERS = 100
# one M-step per pseudo-data refresh; raising this trades accuracy of the
# stopping rule for fewer (more expensive) refreshes.  INNER_TOL stops the
# inner EM early, which needs at least two M-steps to happen
INNER_MAX_ITERS = 1
INNER_TOL = 1e-4
# uniform sampling boxes for the random starts, in Theta's field order
# (pi1, mu1, sigma1_sq, rho1)
START_BOXES = ((0.05, 0.95), (1.0, 4.0), (0.5, 2.0), (0.1, 0.9))


@dataclass(frozen=True)
class FitConfig:
    n_inits: int = 10
    # extra refreshes applied to the winning start; the low-signal regime
    # (small pi1) approaches its self-consistent solution slowly and needs
    # this settling phase, while strong-signal fits barely move during it
    refine_iters: int = 50
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_inits < 1:
            raise DomainError("n_inits must be >= 1")
        if self.refine_iters < 0:
            raise DomainError("refine_iters must be >= 0")


@dataclass(frozen=True)
class FitResult:
    theta: Theta
    loglik: float
    loglik_trace: list = field(repr=False)
    posterior: np.ndarray = field(repr=False)
    n_outer_iters: int = 0
    converged: bool = False
    init_index: int = 0
    copula_loglik: float = -np.inf


def marginal_mixture_cdf(z, theta: Theta):
    """G(z) = pi1 * Phi((z - mu1)/sigma1) + pi0 * Phi(z)."""
    z = np.asarray(z, dtype=float)
    out = (theta.pi1 * dists.normal_cdf((z - theta.mu1) / theta.sigma1)
           + theta.pi0 * dists.normal_cdf(z))
    return out if out.ndim else float(out)


def _marginal_mixture_pdf(z, theta: Theta):
    z = np.asarray(z, dtype=float)
    return (theta.pi1 / theta.sigma1
            * np.exp(dists.normal_log_pdf((z - theta.mu1) / theta.sigma1))
            + theta.pi0 * np.exp(dists.normal_log_pdf(z)))


def marginal_mixture_quantile(u, theta: Theta, tol: float = 1e-12):
    """Inverse of the marginal mixture CDF.

    Monotone grid interpolation seeds vectorized Newton iteration, which
    stops once the largest update falls below tol; if Newton stalls the
    answer is recovered by bracketing bisection instead.
    """
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(~np.isfinite(u_arr)) or np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
        raise DomainError("marginal_mixture_quantile requires 0 < u < 1")

    lo = min(-10.0, theta.mu1 - 10.0 * theta.sigma1)
    hi = max(10.0, theta.mu1 + 10.0 * theta.sigma1)
    while marginal_mixture_cdf(lo, theta) > np.min(u_arr):
        lo = 2.0 * lo - hi
    while marginal_mixture_cdf(hi, theta) < np.max(u_arr):
        hi = 2.0 * hi - lo

    # seed by monotone interpolation on a grid, then polish with Newton
    grid = np.linspace(lo, hi, 2049)
    z = np.interp(u_arr, marginal_mixture_cdf(grid, theta), grid)
    for _ in range(12):
        resid = marginal_mixture_cdf(z, theta) - u_arr
        dens = _marginal_mixture_pdf(z, theta)
        step = np.where(dens > 0.0, resid / np.maximum(dens, 1e-300), 0.0)
        z = np.clip(z - step, lo, hi)
        if np.max(np.abs(step)) < tol:
            break
    else:
        # Newton stalled (flat tail); finish with bracketing bisection
        a = np.full_like(u_arr, lo)
        b = np.full_like(u_arr, hi)
        for _ in range(80):
            mid = 0.5 * (a + b)
            below = marginal_mixture_cdf(mid, theta) < u_arr
            a = np.where(below, mid, a)
            b = np.where(below, b, mid)
        z = 0.5 * (a + b)
    return z if np.ndim(u) else float(z[0])


def compute_pseudo_data(ranked: RankedPairSet, theta: Theta) -> PseudoData:
    """Map both coordinates' rescaled ECDF values through G^{-1}(.; theta)."""
    return PseudoData(
        z1=marginal_mixture_quantile(ranked.u1, theta),
        z2=marginal_mixture_quantile(ranked.u2, theta),
    )


def _component_log_densities(pseudo: PseudoData, theta: Theta):
    log_h0 = dists.bivariate_normal_log_density(
        pseudo.z1, pseudo.z2, dists.BivariateGaussianParams(0.0, 1.0, 0.0))
    log_h1 = dists.bivariate_normal_log_density(
        pseudo.z1, pseudo.z2,
        dists.BivariateGaussianParams(theta.mu1, theta.sigma1_sq,
                                      min(theta.rho1, RHO1_MAX)))
    return log_h0, log_h1


def log_likelihood(pseudo: PseudoData, theta: Theta) -> float:
    """Mixture log-likelihood of the pseudo-data, evaluated in log space."""
    log_h0, log_h1 = _component_log_densities(pseudo, theta)
    terms = np.logaddexp(np.log(theta.pi0) + log_h0,
                         np.log(theta.pi1) + log_h1)
    if np.any(~np.isfinite(terms)):
        raise NumericalUnderflow("mixture density underflowed to zero")
    return float(np.sum(terms))


def copula_log_likelihood(pseudo: PseudoData, theta: Theta) -> float:
    """Joint log-likelihood with the marginal densities divided out.

    Unlike the raw pseudo-data likelihood, this quantity stays comparable
    across parameter values even though the pseudo-data itself moves with
    theta, so it is the right yardstick for choosing among fitted starts.
    """
    ll = log_likelihood(pseudo, theta)
    marg = (np.log(_marginal_mixture_pdf(pseudo.z1, theta))
            + np.log(_marginal_mixture_pdf(pseudo.z2, theta)))
    if np.any(~np.isfinite(marg)):
        raise NumericalUnderflow("marginal mixture density underflowed")
    return ll - float(np.sum(marg))


def _e_step(pseudo: PseudoData, theta: Theta):
    log_h0, log_h1 = _component_log_densities(pseudo, theta)
    a0 = np.log(theta.pi0) + log_h0
    a1 = np.log(theta.pi1) + log_h1
    norm = np.logaddexp(a0, a1)
    gamma = np.exp(a1 - norm)
    return gamma, float(np.sum(norm))


def em_inner(pseudo: PseudoData, theta0: Theta, tol: float = 1e-4,
             max_iters: int = 30):
    """EM on fixed pseudo-data.

    Returns (theta, posteriors, loglik_trace); the trace is nondecreasing.
    Raises DegenerateComponent when the reproducible component starves.
    """
    theta = theta0.clamped()
    z1, z2 = pseudo.z1, pseudo.z2
    trace: list[float] = []
    gamma = None
    for _ in range(max_iters):
        gamma, loglik = _e_step(pseudo, theta)
        trace.append(loglik)
        total = float(np.sum(gamma))
        if total < _MIN_EFFECTIVE_COUNT:
            raise DegenerateComponent(
                f"effective count of the reproducible component is {total:.3f}")
        pi1 = total / gamma.size
        mu1 = float(np.sum(gamma * (z1 + z2)) / (2.0 * total))
        sigma1_sq = float(np.sum(gamma * ((z1 - mu1) ** 2 + (z2 - mu1) ** 2))
                          / (2.0 * total))
        sigma1_sq = max(sigma1_sq, 1e-6)
        rho1 = float(np.sum(gamma * (z1 - mu1) * (z2 - mu1))
                     / (sigma1_sq * total))
        theta = Theta(pi1=float(np.clip(pi1, PI1_MIN, PI1_MAX)),
                      mu1=max(mu1, 1e-6),
                      sigma1_sq=sigma1_sq,
                      rho1=float(np.clip(rho1, RHO1_MIN, RHO1_MAX)))
        if len(trace) >= 2 and trace[-1] - trace[-2] < tol:
            break
    gamma, final_loglik = _e_step(pseudo, theta)
    trace.append(final_loglik)
    return theta, gamma, trace


def _random_theta(rng: np.random.Generator) -> Theta:
    return Theta(*(float(rng.uniform(lo, hi)) for lo, hi in START_BOXES))


def _fit_single(ranked: RankedPairSet, theta0: Theta,
                init_index: int) -> FitResult:
    theta = theta0
    prev_cop = -np.inf
    trace: list[float] = []
    converged = False
    n_outer = 0
    pseudo = compute_pseudo_data(ranked, theta)
    for n_outer in range(1, OUTER_MAX_ITERS + 1):
        theta, gamma, inner_trace = em_inner(
            pseudo, theta, tol=INNER_TOL, max_iters=INNER_MAX_ITERS)
        trace.extend(inner_trace)
        pseudo = compute_pseudo_data(ranked, theta)
        # convergence is judged on the copula log-likelihood: the raw
        # pseudo-data likelihood is not comparable across refreshes because
        # the pseudo-data moves with theta
        cop = copula_log_likelihood(pseudo, theta)
        if abs(cop - prev_cop) < OUTER_TOL:
            converged = True
            break
        prev_cop = cop
    gamma, loglik = _e_step(pseudo, theta)
    return FitResult(theta=theta, loglik=loglik, loglik_trace=trace,
                     posterior=gamma, n_outer_iters=n_outer,
                     converged=converged, init_index=init_index,
                     copula_loglik=cop)


def _thread_map(fn, n: int, threads: int) -> list:
    """[fn(0), ..., fn(n - 1)], spread over `threads` threads when > 1."""
    if threads <= 1:
        return [fn(i) for i in range(n)]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n)))


def fit(ranked: RankedPairSet, config: FitConfig | None = None,
        threads: int = 1) -> FitResult:
    """Fit the copula mixture from several random starts.

    Returns the start reaching the highest copula log-likelihood (the joint
    likelihood with the marginals divided out), ties broken by lowest start
    index.  The raw pseudo-data likelihood is not comparable across starts
    because the pseudo-data itself depends on the parameters.  Starts whose
    reproducible component starves are discarded; if every start is
    discarded the error propagates.  The winner then gets a fixed settling
    budget of additional refreshes (see _refine).  A result with
    converged=False means the winning start never met the outer tolerance.
    """
    if config is None:
        config = FitConfig()
    if ranked.n < 50:
        warnings.warn(f"fitting on only {ranked.n} signals; estimates may be "
                      "unstable below n = 50", stacklevel=2)
    rng = np.random.default_rng(config.rng_seed)
    starts = [_random_theta(rng) for _ in range(config.n_inits)]

    def run(idx: int) -> FitResult | None:
        try:
            return _fit_single(ranked, starts[idx], idx)
        except DegenerateComponent:
            return None

    kept = [r for r in _thread_map(run, config.n_inits, threads)
            if r is not None]
    if not kept:
        raise DegenerateComponent(
            "every random start lost its reproducible component")
    best = max(kept, key=lambda r: (r.copula_loglik, -r.init_index))
    return _refine(ranked, best, config)


def _refine(ranked: RankedPairSet, result: FitResult,
            config: FitConfig) -> FitResult:
    """Settling phase: a fixed budget of extra refresh/EM-step rounds.

    Selection has already placed the winner in the right basin; this lets
    the slowly-mixing alternation (notably when the reproducible fraction
    is small) move the rest of the way toward its self-consistent solution.
    """
    theta = result.theta
    trace = list(result.loglik_trace)
    for _ in range(config.refine_iters):
        pseudo = compute_pseudo_data(ranked, theta)
        theta, _, inner_trace = em_inner(
            pseudo, theta, tol=INNER_TOL, max_iters=INNER_MAX_ITERS)
        trace.extend(inner_trace)
    pseudo = compute_pseudo_data(ranked, theta)
    gamma, loglik = _e_step(pseudo, theta)
    return FitResult(theta=theta, loglik=loglik, loglik_trace=trace,
                     posterior=gamma,
                     n_outer_iters=result.n_outer_iters + config.refine_iters,
                     converged=result.converged,
                     init_index=result.init_index,
                     copula_loglik=copula_log_likelihood(pseudo, theta))
