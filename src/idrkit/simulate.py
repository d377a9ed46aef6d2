"""Synthetic replicate data and the calibration / discrimination experiments.

Each signal draws a component label, a latent value shared by both replicates,
and independent per-replicate noise; the split of the component variance into
shared and independent parts is what sets the within-component correlation.
Latent values are pushed through a t5 probability integral transform and a
one-sided z-test so the resulting p-values are miscalibrated but rank-faithful.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import dists
from .errors import DomainError
from .mixture import FitConfig, fit
from .ranking import ScoredPairSet, rank_scores
from .selection import IdrTable, select_at_idr
from .combine import fisher_statistics, stouffer_statistics

__all__ = [
    "SimComponent",
    "SimScenario",
    "SimDataset",
    "CalibrationRow",
    "CalibrationTable",
    "TradeoffRow",
    "TradeoffTable",
    "ScenarioReport",
    "scenario_report",
    "scenario_preset",
    "simulate_dataset",
    "method_statistics",
    "threshold_calls",
    "calibration_experiment",
    "discrimination_experiment",
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


@dataclass(frozen=True)
class SimScenario:
    components: tuple
    n: int
    seed: int
    label: str = ""

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
        for c in comps:
            if not (0.0 <= c.rho < 1.0):
                raise DomainError(f"rho must lie in [0, 1), got {c.rho}")


@dataclass(frozen=True)
class SimDataset:
    pvalues1: np.ndarray
    pvalues2: np.ndarray
    truth: np.ndarray

    @property
    def n(self) -> int:
        return int(self.truth.size)

    def scores(self) -> ScoredPairSet:
        """Higher-is-better scores for the copula mixture fit."""
        return ScoredPairSet(-self.pvalues1, -self.pvalues2)


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
    return SimScenario(components=comps, n=n, seed=seed, label=name)


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
    z1 = latent + omega * rng.standard_normal(n)
    z2 = latent + omega * rng.standard_normal(n)

    def to_pvalue(z: np.ndarray) -> np.ndarray:
        u = np.clip(_marginal_mixture_cdf(z, scenario), 1e-15, 1.0 - 1e-15)
        x = dists.t5_quantile(u)
        # survival form keeps small p-values exact
        p = dists.normal_cdf(-x)
        return np.clip(p, 1e-300, 1.0 - 1e-16)

    return SimDataset(pvalues1=to_pvalue(z1), pvalues2=to_pvalue(z2),
                      truth=truth)


@dataclass(frozen=True)
class CalibrationRow:
    method: str
    nominal: float
    empirical_fdr: float
    n_selected: float


@dataclass(frozen=True)
class CalibrationTable:
    scenario: str
    n_reps: int
    rows: tuple


@dataclass(frozen=True)
class TradeoffRow:
    method: str
    rep: int
    threshold: float
    incorrect: int
    correct: int


@dataclass(frozen=True)
class TradeoffTable:
    scenario: str
    n_reps: int
    rows: tuple


def method_statistics(pvalues1: np.ndarray, pvalues2: np.ndarray,
                      local_idr: np.ndarray) -> dict:
    """Per-signal statistic of each method in METHODS, smaller meaning more
    confident: the local idr, and the BH-adjusted p-values of replicate 1
    and of the Fisher and Stouffer combinations of both replicates."""
    return {
        "idr": local_idr,
        "rep1": dists.bh_adjust(pvalues1),
        "fisher": dists.bh_adjust(fisher_statistics(pvalues1, pvalues2)),
        "stouffer": dists.bh_adjust(stouffer_statistics(pvalues1, pvalues2)),
    }


def threshold_calls(stats: dict, genuine: np.ndarray, thresholds):
    """Yield (method, threshold, incorrect, correct) per threshold and method.

    A signal is called when its statistic is below the threshold; a call is
    correct when the signal is genuine.
    """
    for thr in thresholds:
        for method, values in stats.items():
            called = values < thr
            yield (method, float(thr),
                   int(np.count_nonzero(called & ~genuine)),
                   int(np.count_nonzero(called & genuine)))


def _fdr(false_mask: np.ndarray, selected: np.ndarray) -> float:
    if selected.size == 0:
        return 0.0
    return float(np.count_nonzero(false_mask[selected])) / selected.size


@dataclass(frozen=True)
class ScenarioReport:
    """Everything the simulate CLI emits, from a single pass over the reps."""

    scenario: str
    n_reps: int
    fit_rows: tuple  # (rep, pi1, mu1, sigma1_sq, rho1, loglik, converged)
    calibration: CalibrationTable
    tradeoff: TradeoffTable


def scenario_report(scenario: SimScenario, n_reps: int,
                    nominal_levels=NOMINAL_GRID,
                    fit_config: FitConfig | None = None,
                    threads: int = 1) -> ScenarioReport:
    """Fit each replicate dataset once and derive the parameter summary,
    calibration table, and trade-off table from the shared fits.

    Calibration averages each method's empirical FDR and selection size over
    the replicates: idr selects by cumulative IDR, the baselines by
    BH-adjusted p-value.  A signal is false whenever its true component is
    not the genuine one.
    """
    if n_reps < 1:
        raise DomainError("n_reps must be >= 1")
    if fit_config is None:
        fit_config = FitConfig()
    levels = [float(a) for a in nominal_levels]
    fit_rows = []
    trade_rows = []
    fdr_acc = {(m, a): [] for m in METHODS for a in levels}
    sel_acc = {(m, a): [] for m in METHODS for a in levels}
    for rep in range(n_reps):
        data = simulate_dataset(replace(scenario, seed=scenario.seed + rep))
        result = fit(rank_scores(data.scores()),
                     replace(fit_config, rng_seed=fit_config.rng_seed + rep),
                     threads=threads)
        th = result.theta
        fit_rows.append((rep, th.pi1, th.mu1, th.sigma1_sq, th.rho1,
                         result.loglik, result.converged))
        local = 1.0 - result.posterior
        table = IdrTable.from_local_idr(local)
        stats = method_statistics(data.pvalues1, data.pvalues2, local)
        false_mask = data.truth != GENUINE
        for alpha in levels:
            n_sel = select_at_idr(table, alpha) if alpha > 0 else 0
            selected = {"idr": table.original_index[:n_sel]}
            selected.update({m: np.nonzero(stats[m] <= alpha)[0]
                             for m in METHODS[1:]})
            for m, sel in selected.items():
                fdr_acc[(m, alpha)].append(_fdr(false_mask, sel))
                sel_acc[(m, alpha)].append(sel.size)
        trade_rows.extend(
            TradeoffRow(m, rep, thr, incorrect=incorrect, correct=correct)
            for m, thr, incorrect, correct
            in threshold_calls(stats, ~false_mask, levels))
    calibration = CalibrationTable(
        scenario.label, n_reps,
        tuple(CalibrationRow(m, a, float(np.mean(fdr_acc[(m, a)])),
                             float(np.mean(sel_acc[(m, a)])))
              for m in METHODS for a in levels))
    tradeoff = TradeoffTable(scenario.label, n_reps, tuple(trade_rows))
    return ScenarioReport(scenario.label, n_reps, tuple(fit_rows),
                          calibration, tradeoff)


def calibration_experiment(scenario: SimScenario, n_reps: int,
                           nominal_levels=NOMINAL_GRID,
                           fit_config: FitConfig | None = None,
                           threads: int = 1) -> CalibrationTable:
    """Empirical FDR at each nominal level, averaged over replicate
    datasets: the calibration table of scenario_report."""
    return scenario_report(scenario, n_reps, nominal_levels, fit_config,
                           threads).calibration


def discrimination_experiment(scenario: SimScenario, n_reps: int,
                              thresholds=NOMINAL_GRID,
                              fit_config: FitConfig | None = None,
                              threads: int = 1) -> TradeoffTable:
    """(incorrect, correct) call counts at each threshold, per method and
    replicate dataset: the trade-off table of scenario_report."""
    return scenario_report(scenario, n_reps, thresholds, fit_config,
                           threads).tradeoff


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
