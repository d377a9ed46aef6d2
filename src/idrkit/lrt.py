"""One-component vs two-component model selection.

The null model is a single Gaussian copula with free correlation; the
alternative is the full copula mixture.  Because the usual asymptotics fail
at the mixture boundary, the null distribution of 2*log(lambda) is obtained
by a parametric bootstrap from the fitted null.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize_scalar

from . import dists
from .errors import DegenerateComponent, DomainError
from .mixture import FitConfig, _thread_map, fit
from .ranking import RankedPairSet, ScoredPairSet, rank_scores

__all__ = ["LrtResult", "fit_one_component", "bootstrap_lrt"]

_RHO_BOUND = 0.999


@dataclass(frozen=True)
class LrtResult:
    rho_null: float
    loglik_null: float
    loglik_alt: float
    two_log_lambda: float
    bootstrap_stats: np.ndarray = field(repr=False)
    p_value: float = 1.0
    n_bootstrap: int = 0


def _gaussian_copula_loglik(z1: np.ndarray, z2: np.ndarray,
                            rho: float) -> float:
    """Copula log-likelihood: joint normal density over its two marginals."""
    params = dists.BivariateGaussianParams(0.0, 1.0, rho)
    joint = np.sum(dists.bivariate_normal_log_density(z1, z2, params))
    marg = np.sum(dists.normal_log_pdf(z1)) + np.sum(dists.normal_log_pdf(z2))
    return float(joint - marg)


def fit_one_component(ranked: RankedPairSet) -> tuple[float, float]:
    """Maximum-likelihood correlation of a single standard Gaussian copula.

    Pseudo-data is the normal quantile of the rescaled ECDF values; the
    correlation is found by one-dimensional search and clamped to
    (-0.999, 0.999).  Returns (rho, copula log-likelihood at rho).
    """
    if ranked.n < 50:
        raise DomainError(f"one-component fit needs n >= 50, got {ranked.n}")
    z1 = dists.normal_quantile(ranked.u1)
    z2 = dists.normal_quantile(ranked.u2)
    res = minimize_scalar(lambda r: -_gaussian_copula_loglik(z1, z2, r),
                          bounds=(-_RHO_BOUND, _RHO_BOUND), method="bounded",
                          options={"xatol": 1e-7})
    rho = float(np.clip(res.x, -_RHO_BOUND, _RHO_BOUND))
    return rho, _gaussian_copula_loglik(z1, z2, rho)


def _two_log_lambda(ranked: RankedPairSet,
                    fit_config: FitConfig) -> tuple[float, float, float, float]:
    # both models are scored by their copula log-likelihood; the mixture's
    # raw pseudo-data likelihood lives on a different marginal scale and
    # would not be comparable to the one-component value
    rho, loglik_null = fit_one_component(ranked)
    alt = fit(ranked, fit_config)
    return (rho, loglik_null, alt.copula_loglik,
            2.0 * (alt.copula_loglik - loglik_null))


def bootstrap_lrt(ranked: RankedPairSet, n_bootstrap: int = 100,
                  seed: int = 0, fit_config: FitConfig | None = None,
                  threads: int = 1) -> LrtResult:
    """Parametric bootstrap likelihood-ratio test of one vs two components.

    Bootstrap samples are drawn from the fitted null copula on the latent
    scale and rank-transformed, so both refits see data of the same form as
    the original.  The p-value uses the add-one formula and is never zero.
    """
    if n_bootstrap < 1:
        raise DomainError("n_bootstrap must be >= 1")
    if fit_config is None:
        fit_config = FitConfig()
    rho, loglik_null, loglik_alt, observed = _two_log_lambda(ranked, fit_config)

    n = ranked.n
    cov = np.array([[1.0, rho], [rho, 1.0]])

    def one_replicate(b: int) -> float:
        for retry in range(4):
            rng = np.random.default_rng((seed, b, retry))
            latent = rng.multivariate_normal(np.zeros(2), cov, size=n)
            boot = rank_scores(ScoredPairSet(latent[:, 0], latent[:, 1]))
            config = replace(fit_config,
                             rng_seed=fit_config.rng_seed + b + 1)
            try:
                return _two_log_lambda(boot, config)[3]
            except DegenerateComponent:
                continue
        return np.inf  # conservative: counts against the alternative

    stats = np.array(_thread_map(one_replicate, n_bootstrap, threads))

    p_value = (float(np.count_nonzero(stats >= observed)) + 1.0) \
        / (n_bootstrap + 1.0)
    return LrtResult(rho_null=rho, loglik_null=loglik_null,
                     loglik_alt=loglik_alt, two_log_lambda=observed,
                     bootstrap_stats=stats, p_value=p_value,
                     n_bootstrap=n_bootstrap)
