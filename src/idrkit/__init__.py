"""Reproducibility of ranked signal lists from replicate experiments.

Correspondence curves, a semiparametric Gaussian copula mixture fitted by a
pseudo-data EM procedure, local idr / IDR selection, p-value combination
baselines, simulation benchmarks, and ChIP-seq peak pairing.
"""

__version__ = "0.1.0"

from .combine import CombinedResult, fisher_combine, stouffer_combine
from .curves import CorrespondenceCurve, correspondence_curve, psi_n
from .dists import bh_adjust, normal_cdf, normal_quantile, t5_cdf, t5_quantile
from .lrt import LrtResult, bootstrap_lrt, fit_one_component
from .mixture import (FitConfig, FitResult, Theta, compute_pseudo_data,
                      em_inner, fit, log_likelihood, marginal_mixture_cdf,
                      marginal_mixture_quantile)
from .peaks import (PairedPeaks, PeakTable, pair_peaks, parse_peak_file,
                    truncate_to_width)
from .ranking import RankedPairSet, ScoredPairSet, rank_scores
from .selection import IdrTable, idr_table, local_idr, select_at_idr
from .simulate import (ScenarioReport, SimComponent, SimDataset, SimScenario,
                       scenario_preset, scenario_report, simulate_dataset)

__all__ = [name for name in dir() if not name.startswith("_")]
