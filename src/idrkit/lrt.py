"""One-component vs two-component model selection.

The null model is a single Gaussian copula with free correlation rho.  With
r = mean(x*y) and a = mean(x**2 + y**2) over the two replicates' normal
scores x and y, its copula log-likelihood is n*(-log(1 - rho**2)/2 -
(rho**2*a - 2*rho*r)/(2*(1 - rho**2))), its score is
-n*f(rho)/(1 - rho**2)**2 for the cubic f(rho) = rho**3 - r*rho**2 -
(1 - a)*rho - r, and f(-1) <= 0 <= f(1).  The alternative is the full
copula mixture.  Because the usual asymptotics fail at the mixture
boundary, the null distribution of 2*log(lambda) is obtained by a
parametric bootstrap from the fitted null.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import dists
from .errors import DegenerateComponent, DomainError
from .mixture import FitConfig, FitResult, fit
from .ranking import RankedPairSet, ScoredPairSet, rank_scores

__all__ = ["LrtResult", "fit_one_component", "bootstrap_lrt"]

_RHO_BOUND = 0.999


@dataclass(frozen=True)
class LrtResult:
    rho_null: float
    loglik_null: float
    two_log_lambda: float
    # the alternative, the mixture fit to the observed data
    alt: FitResult
    bootstrap_stats: np.ndarray = field(repr=False)
    p_value: float = 1.0


def fit_one_component(ranked: RankedPairSet) -> tuple[float, float]:
    """Maximum-likelihood correlation of a single standard Gaussian copula.

    Pseudo-data is the normal quantile of the rescaled ECDF values.  rho is
    the likeliest of +-1 and the real parts of the score cubic's roots, all
    clamped to [-0.999, 0.999], first on ties.  Returns (rho, log-likelihood).
    """
    if ranked.n < 50:
        raise DomainError(f"one-component fit needs n >= 50, got {ranked.n}")
    x, y = dists.normal_quantile(ranked.u)
    r, a = np.mean(x * y), np.mean(x * x + y * y)
    rhos = np.append(np.roots([1.0, -r, a - 1.0, -r]).real, (-1.0, 1.0))
    rhos = np.clip(rhos, -_RHO_BOUND, _RHO_BOUND)
    one_m_r2 = 1.0 - rhos * rhos
    quad = (rhos * rhos * a - 2.0 * rhos * r) / (2.0 * one_m_r2)
    logliks = ranked.n * (-0.5 * np.log(one_m_r2) - quad)
    best = int(np.argmax(logliks))
    return float(rhos[best]), float(logliks[best])


def _two_log_lambda(ranked: RankedPairSet, fit_config: FitConfig
                    ) -> tuple[float, float, FitResult, float]:
    # both models are scored by their copula log-likelihood; the mixture's
    # raw pseudo-data likelihood lives on a different marginal scale and
    # would not be comparable to the one-component value.  The mixture at
    # pi1 = 1 is the null, so the alternative's supremum is at least the
    # null's, and a fit that stops below it counts as the null's value
    rho, loglik_null = fit_one_component(ranked)
    alt = fit(ranked, fit_config)
    return rho, loglik_null, alt, \
        2.0 * max(0.0, alt.copula_loglik - loglik_null)


def bootstrap_lrt(ranked: RankedPairSet, n_bootstrap: int = 100,
                  seed: int = 0,
                  fit_config: FitConfig | None = None) -> LrtResult:
    """Parametric bootstrap likelihood-ratio test of one vs two components.

    Bootstrap samples are drawn from the fitted null copula on the latent
    scale and rank-transformed, so both refits see data of the same form as
    the original.  The p-value uses the add-one formula and is never zero.
    The replicates run in turn, each fit with fit_config but its own seed.
    """
    if n_bootstrap < 1:
        raise DomainError("n_bootstrap must be >= 1")
    if fit_config is None:
        fit_config = FitConfig()
    rho, loglik_null, alt, observed = _two_log_lambda(ranked, fit_config)

    n = ranked.n
    cov = np.array([[1.0, rho], [rho, 1.0]])

    def one_replicate(b: int) -> float:
        for retry in range(4):
            rng = np.random.default_rng((seed, b, retry))
            latent = rng.multivariate_normal(np.zeros(2), cov, size=n)
            boot = rank_scores(ScoredPairSet(*latent.T))
            config = replace(fit_config,
                             rng_seed=fit_config.rng_seed + b + 1)
            try:
                return _two_log_lambda(boot, config)[3]
            except DegenerateComponent:
                continue
        return np.inf  # conservative: counts against the alternative

    stats = np.array([one_replicate(b) for b in range(n_bootstrap)])

    p_value = (float(np.count_nonzero(stats >= observed)) + 1.0) \
        / (n_bootstrap + 1.0)
    return LrtResult(rho_null=rho, loglik_null=loglik_null,
                     two_log_lambda=observed, alt=alt,
                     bootstrap_stats=stats, p_value=p_value)
