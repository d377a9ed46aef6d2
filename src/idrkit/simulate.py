"""Synthetic replicate data and the simulation report: parameter recovery,
calibration and discrimination from one pass over the replicate datasets.

Each signal draws a component label, a latent value shared by both replicates,
and independent per-replicate noise; the split of the component variance into
shared and independent parts is what sets the within-component correlation.
Latent values are pushed through a t5 probability integral transform and a
one-sided z-test so the resulting p-values are miscalibrated but rank-faithful.
"""

from __future__ import annotations

import numbers
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from . import dists
from .errors import DomainError
from .mixture import FitConfig, fit
from .ranking import ScoredPairSet, rank_scores
from .selection import IdrTable, select_at_idr
from .combine import fisher_combine, stouffer_combine

__all__ = [
    "SimComponent",
    "SimScenario",
    "SimDataset",
    "CalibrationRow",
    "TradeoffRow",
    "ScenarioReport",
    "scenario_report",
    "scenario_preset",
    "simulate_dataset",
    "method_statistics",
    "threshold_calls",
    "ranking_tradeoff",
    "correct_calls_at_incorrect",
]

NOMINAL_GRID = tuple(np.round(np.arange(1, 41) * 0.005, 3))
METHODS = ("idr", "rep1", "fisher", "stouffer")

# component index 1 is the genuine-signal component in every scenario
GENUINE = 1


@dataclass(frozen=True)
class SimComponent:
    pi: float
    mu: float
    rho: float
    sigma_sq: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise DomainError(
                    f"field {f.name!r} is missing or not a number")
        for name, ok, rule in (
                ("pi", 0.0 <= self.pi <= 1.0, "lie in [0, 1]"),
                ("mu", np.isfinite(self.mu), "be finite"),
                ("rho", 0.0 <= self.rho < 1.0, "lie in [0, 1)"),
                ("sigma_sq", 0.0 < self.sigma_sq < np.inf,
                 "be finite and > 0")):
            if not ok:
                raise DomainError(
                    f"{name} must {rule}, got {getattr(self, name)}")


@dataclass(frozen=True)
class SimScenario:
    components: tuple
    n: int
    seed: int

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        total = sum(c.pi for c in comps)
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"component proportions sum to {total}, not 1")
        c0 = comps[0]
        if not (c0.mu == 0.0 and c0.rho == 0.0 and c0.sigma_sq == 1.0):
            raise DomainError("component 0 must be the standard independent "
                              "noise component")


@dataclass(frozen=True)
class SimDataset:
    pvalues: np.ndarray  # (2, n), one row per replicate
    truth: np.ndarray

    @property
    def pvalues1(self) -> np.ndarray:
        return self.pvalues[0]

    @property
    def pvalues2(self) -> np.ndarray:
        return self.pvalues[1]

    def scores(self) -> ScoredPairSet:
        """Higher-is-better scores for the copula mixture fit."""
        return ScoredPairSet(*-self.pvalues)


_PRESETS = {
    "S1": (SimComponent(0.35, 0.0, 0.0), SimComponent(0.65, 2.5, 0.84)),
    "S2": (SimComponent(0.70, 0.0, 0.0), SimComponent(0.30, 2.5, 0.40)),
    "S3": (SimComponent(0.95, 0.0, 0.0), SimComponent(0.05, 2.5, 0.84)),
    "S4": (SimComponent(0.28, 0.0, 0.0), SimComponent(0.65, 3.0, 0.84),
           SimComponent(0.07, 0.0, 0.64)),
}


def scenario_preset(name: str, n: int = 10000, seed: int = 0) -> SimScenario:
    """One of the four benchmark parameterizations S1-S4."""
    try:
        comps = _PRESETS[name]
    except KeyError:
        raise DomainError(f"unknown scenario {name!r}; expected one of "
                          f"{sorted(_PRESETS)}") from None
    return SimScenario(components=comps, n=n, seed=seed)


def _marginal_mixture_cdf(z: np.ndarray, scenario: SimScenario) -> np.ndarray:
    out = np.zeros_like(z, dtype=float)
    for c in scenario.components:
        out += c.pi * dists.normal_cdf((z - c.mu) / np.sqrt(c.sigma_sq))
    return out


def simulate_dataset(scenario: SimScenario) -> SimDataset:
    """Draw one paired dataset; identical seeds give bit-identical output."""
    rng = np.random.default_rng(scenario.seed)
    n = scenario.n
    pis = np.array([c.pi for c in scenario.components])
    truth = rng.choice(len(scenario.components), size=n, p=pis)

    mus = np.array([c.mu for c in scenario.components])[truth]
    sig2 = np.array([c.sigma_sq for c in scenario.components])[truth]
    rhos = np.array([c.rho for c in scenario.components])[truth]
    tau = np.sqrt(rhos * sig2)        # shared part
    omega = np.sqrt((1.0 - rhos) * sig2)  # replicate-specific part

    latent = mus + tau * rng.standard_normal(n)
    # one row of noise per replicate, the same stream as two draws of n
    z = latent + omega * rng.standard_normal((2, n))
    u = np.clip(_marginal_mixture_cdf(z, scenario), 1e-15, 1.0 - 1e-15)
    # survival form keeps small p-values exact
    p = dists.normal_cdf(-dists.t5_quantile(u))
    return SimDataset(pvalues=np.clip(p, 1e-300, 1.0 - 1e-16), truth=truth)


@dataclass(frozen=True)
class CalibrationRow:
    method: str
    nominal: float
    empirical_fdr: float
    n_selected: float


@dataclass(frozen=True)
class TradeoffRow:
    method: str
    rep: int
    threshold: float
    incorrect: int
    correct: int


def method_statistics(p: np.ndarray, q: np.ndarray,
                      local_idr: np.ndarray) -> dict:
    """Per-signal statistic of each method in METHODS, smaller meaning more
    confident: the local idr, and the BH-adjusted p-values of replicate 1's p
    and of Fisher's and Stouffer's combinations of p and replicate 2's q."""
    return {
        "idr": local_idr,
        "rep1": dists.bh_adjust(p),
        "fisher": dists.bh_adjust(fisher_combine(p, q).combined_p),
        "stouffer": dists.bh_adjust(stouffer_combine(p, q).combined_p),
    }


def threshold_calls(stats: dict, genuine: np.ndarray, thresholds):
    """Yield (method, threshold, incorrect, correct) per threshold and method.

    A signal is called when its statistic is at or below the threshold, as
    select_at_idr selects; a call is correct when the signal is genuine.
    """
    for thr in thresholds:
        for method, values in stats.items():
            called = values <= thr
            yield (method, float(thr),
                   int(np.count_nonzero(called & ~genuine)),
                   int(np.count_nonzero(called & genuine)))


@dataclass(frozen=True)
class ScenarioReport:
    """Everything the simulate CLI emits, from a single pass over the reps."""

    fit_rows: tuple  # (rep, *astuple(theta), loglik, converged)
    calibration: tuple  # CalibrationRow per method and level
    tradeoff: tuple  # TradeoffRow per replicate, level and method


def scenario_report(scenario: SimScenario, n_reps: int,
                    fit_config: FitConfig | None = None) -> ScenarioReport:
    """Fit each replicate dataset once and derive the parameter summary,
    calibration table, and trade-off table from the shared fits, at each
    level of NOMINAL_GRID.

    The trade-off rows count each method's incorrect and correct calls at
    each level (threshold_calls); a call is incorrect whenever the signal's
    true component is not the genuine one.  Calibration averages each
    method's empirical FDR, incorrect / (incorrect + correct) or 0 when
    nothing is called, and its selection size over the replicates: the
    baselines take the trade-off counts, and idr the prefix of the IDR
    table that select_at_idr takes.
    """
    if n_reps < 1:
        raise DomainError("n_reps must be >= 1")
    if fit_config is None:
        fit_config = FitConfig()
    levels = [float(a) for a in NOMINAL_GRID]
    fit_rows = []
    trade_rows = []
    # (incorrect, correct) of each method and level, one pair per replicate
    calls = {(m, a): [] for m in METHODS for a in levels}
    for rep in range(n_reps):
        data = simulate_dataset(replace(scenario, seed=scenario.seed + rep))
        result = fit(rank_scores(data.scores()),
                     replace(fit_config, rng_seed=fit_config.rng_seed + rep))
        fit_rows.append((rep, *astuple(result.theta), result.loglik,
                         result.converged))
        local = 1.0 - result.posterior
        table = IdrTable.from_local_idr(local)
        genuine = data.truth == GENUINE
        for m, thr, incorrect, correct in threshold_calls(
                method_statistics(*data.pvalues, local), genuine, levels):
            trade_rows.append(TradeoffRow(m, rep, thr, incorrect, correct))
            if m != "idr":
                calls[m, thr].append((incorrect, correct))
        for a in levels:
            called = genuine[table.original_index[:select_at_idr(table, a)]]
            correct = int(np.count_nonzero(called))
            calls["idr", a].append((called.size - correct, correct))
    calibration = tuple(
        CalibrationRow(m, a,
                       float(np.mean([i / (i + c) if i + c else 0.0
                                      for i, c in counts])),
                       float(np.mean([i + c for i, c in counts])))
        for (m, a), counts in calls.items())
    return ScenarioReport(tuple(fit_rows), calibration, tuple(trade_rows))


def ranking_tradeoff(statistic: np.ndarray, truth: np.ndarray):
    """Cumulative (incorrect, correct) counts along the ascending ranking of
    a per-signal statistic (smaller means more confidently called)."""
    order = np.argsort(statistic, kind="stable")
    genuine = (truth[order] == GENUINE)
    correct = np.cumsum(genuine)
    incorrect = np.cumsum(~genuine)
    return incorrect, correct


def correct_calls_at_incorrect(statistic: np.ndarray, truth: np.ndarray,
                               target_incorrect: int) -> int:
    """Correct calls made just before the (target+1)-th incorrect call."""
    incorrect, correct = ranking_tradeoff(statistic, truth)
    admissible = np.nonzero(incorrect <= target_incorrect)[0]
    return int(correct[admissible[-1]]) if admissible.size else 0
