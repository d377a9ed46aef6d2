"""Seeded inputs, op chains, output checks and answers for the three workloads.

An input set is built from its seed and size alone: `setup(seed, workdir,
size)` writes the input files and returns what the checks need to know
about them (the planted truth).  An op is one pass of the workload's
subcommand chain through the real CLI entry point `idrkit.cli.run`, always
with `--threads 1` and a fixed program seed, so the program sees only the
generated files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from idrkit import simulate
from idrkit.mixture import Theta, compute_pseudo_data, copula_log_likelihood
from idrkit.ranking import ScoredPairSet, rank_scores
from idrkit.selection import idr_table, select_at_idr

IDR_THRESHOLD = 0.05
LRT_BOOTSTRAP = 9
SUMMIT_WINDOW = 40  # the `pair` default --width
# one peak site per slot of this many bp; sites in different slots never
# overlap
SLOT_BP = 1_000

# GRCh38 primary assembly lengths; peaks are spread in proportion to them
CHROM_LENGTHS = {
    "chr1": 248_956_422, "chr2": 242_193_529, "chr3": 198_295_559,
    "chr4": 190_214_555, "chr5": 181_538_259, "chr6": 170_805_979,
    "chr7": 159_345_973, "chr8": 145_138_636, "chr9": 138_394_717,
    "chr10": 133_797_422, "chr11": 135_086_622, "chr12": 133_275_309,
    "chr13": 114_364_328, "chr14": 107_043_718, "chr15": 101_991_189,
    "chr16": 90_338_345, "chr17": 83_257_441, "chr18": 80_373_285,
    "chr19": 58_617_616, "chr20": 64_444_167, "chr21": 46_709_983,
    "chr22": 50_818_468, "chrX": 156_040_895,
}


class CheckFailed(Exception):
    """An op's outputs disagree with what the inputs imply."""


# ------------------------------------------------------------------ inputs


def write_s1_scores(path: Path, n: int, seed: int) -> np.ndarray:
    """Write an S1 dataset as a score1/score2 TSV (higher is better) with
    repr(float) values, which read back bit-exactly.  Returns the truth
    labels (1 = genuine signal)."""
    data = simulate.simulate_dataset(simulate.scenario_preset("S1", n=n,
                                                              seed=seed))
    s1, s2 = (-data.pvalues1).tolist(), (-data.pvalues2).tolist()
    with open(path, "w") as out:
        out.write("score1\tscore2\n")
        out.writelines(f"{a!r}\t{b!r}\n" for a, b in zip(s1, s2))
    return data.truth


def _largest_remainder(total: int, weights: np.ndarray) -> np.ndarray:
    quota = total * weights / weights.sum()
    counts = np.floor(quota).astype(int)
    counts[np.argsort(quota - counts)[::-1][:total - counts.sum()]] += 1
    return counts


def _narrowpeak_line(rng, chrom: str, summit: int, signal: float,
                     name: str) -> tuple:
    width = int(rng.integers(100, 601))
    offset = int(rng.integers(10, width - 10))
    start = summit - offset
    score = min(1000, int(signal * 20))
    return (chrom, start,
            f"{chrom}\t{start}\t{start + width}\t{name}\t{score}\t.\t"
            f"{signal!r}\t{signal / 2!r}\t-1\t{offset}\n")


def write_peak_pair(rep1: Path, rep2: Path, seed: int, n_peaks: int,
                    n_pairs: int) -> set:
    """Write two narrowPeak replicates with `n_pairs` planted pairs and
    `n_peaks - n_pairs` unpaired peaks each.

    Every site sits in its own SLOT_BP slot.  A planted pair's summits are at
    most 30 bp apart, so their 40 bp summit windows overlap by >= 10 bp; an
    unpaired peak's window overlaps nothing.  The maximum one-to-one matching
    is therefore exactly the planted pairs.  Returns them as
    (chrom, window start 1, window start 2) triples, the key `pair` reports.
    """
    rng = np.random.default_rng(seed)
    chroms = list(CHROM_LENGTHS)
    weights = np.array([CHROM_LENGTHS[c] for c in chroms], dtype=float)
    pairs = _largest_remainder(n_pairs, weights)
    singles = _largest_remainder(n_peaks - n_pairs, weights)
    half = SUMMIT_WINDOW // 2
    lines1, lines2, planted = [], [], set()
    for chrom, n_pair, n_single in zip(chroms, pairs, singles):
        n_slots = CHROM_LENGTHS[chrom] // SLOT_BP - 2
        slots = 1 + rng.choice(n_slots, n_pair + 2 * n_single, replace=False)
        centers = slots * SLOT_BP + SLOT_BP // 2 \
            + rng.integers(-100, 101, slots.size)
        kinds = rng.permutation(np.repeat([0, 1, 2],
                                          [n_pair, n_single, n_single]))
        latent = rng.standard_normal(slots.size)
        for k, (center, kind, x) in enumerate(zip(centers.tolist(),
                                                  kinds.tolist(),
                                                  latent.tolist())):
            name = f"{chrom}_site{k}"
            if kind == 0:
                shift = int(rng.integers(-30, 31))
                e1, e2 = rng.standard_normal(2).tolist()
                sig1 = math.exp(1.5 + 0.6 * (0.9 * x + 0.44 * e1))
                sig2 = math.exp(1.5 + 0.6 * (0.9 * x + 0.44 * e2))
                lines1.append(_narrowpeak_line(rng, chrom, center, sig1, name))
                lines2.append(_narrowpeak_line(rng, chrom, center + shift,
                                               sig2, name))
                planted.add((chrom, center - half, center + shift - half))
            else:
                signal = math.exp(0.8 + 0.5 * x)
                target = lines1 if kind == 1 else lines2
                target.append(_narrowpeak_line(rng, chrom, center, signal,
                                               name))
    for path, lines in ((rep1, lines1), (rep2, lines2)):
        lines.sort(key=lambda t: (chroms.index(t[0]), t[1]))
        with open(path, "w") as out:
            out.writelines(t[2] for t in lines)
    return planted


# --------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int, Path, int], dict]
    chain: Callable[[Path, Path], list]
    check: Callable[[dict, Path, Path], dict]
    size: int
    # the untimed warm-up op runs the same chain on inputs of this size: it
    # reaches every code path and lazy import at a fraction of the cost,
    # which leaves room in a run for three timed ops
    warmup_size: int
    # input sets per run, each generated from its own seed.  The work of a
    # fit depends on the dataset (refresh counts range 855-1057 over S1
    # seeds 0-19), so workloads that fit time a different dataset in each
    # op; the pairing work depends only on per-chromosome peak counts,
    # which every seed shares, so peaks-pair repeats one set
    input_sets: int = 1


def _read_tsv(path: Path) -> list[list[str]]:
    with open(path) as handle:
        return [line.rstrip("\n").split("\t") for line in handle]


def _fit_select_setup(seed: int, inputs: Path, n: int) -> dict:
    truth = write_s1_scores(inputs / "s1.tsv", n, seed)
    return {"truth": truth}


def _fit_select_chain(inputs: Path, out: Path) -> list:
    return [
        ["fit", "--input", str(inputs / "s1.tsv"),
         "--output-prefix", str(out / "fit"), "--seed", "0",
         "--threads", "1"],
        ["select", "--input", str(out / "fit.tsv"),
         "--idr-threshold", str(IDR_THRESHOLD),
         "--output", str(out / "selected.tsv")],
        ["curve", "--input", str(inputs / "s1.tsv"),
         "--output", str(out / "curve.csv")],
    ]


def _fit_select_check(state: dict, inputs: Path, out: Path) -> dict:
    fit_json = json.loads((out / "fit.json").read_text())
    theta = Theta(fit_json["pi1"], fit_json["mu1"], fit_json["sigma1_sq"],
                  fit_json["rho1"])
    if "expected_selected" not in state:
        # the library path, run once outside the timed op
        rows = _read_tsv(inputs / "s1.tsv")[1:]
        s1 = np.array([float(r[0]) for r in rows])
        s2 = np.array([float(r[1]) for r in rows])
        ranked = rank_scores(ScoredPairSet(s1, s2))
        state["expected_selected"] = select_at_idr(idr_table(ranked, theta),
                                                   IDR_THRESHOLD)
        state["copula_loglik"] = copula_log_likelihood(
            compute_pseudo_data(ranked, theta), theta)
        state["row_of_scores"] = {(r[0], r[1]): i
                                  for i, r in enumerate(rows)}
    selected = _read_tsv(out / "selected.tsv")[1:]
    if len(selected) != state["expected_selected"]:
        raise CheckFailed(f"select kept {len(selected)} rows, the library "
                          f"path keeps {state['expected_selected']}")
    truth = state["truth"]
    false = sum(truth[state["row_of_scores"][r[0], r[1]]] != simulate.GENUINE
                for r in selected)
    return {"pi1": theta.pi1, "mu1": theta.mu1,
            "sigma1_sq": theta.sigma1_sq, "rho1": theta.rho1,
            "copula_loglik": state["copula_loglik"],
            "converged": fit_json["converged"],
            "n_selected": len(selected),
            "true_fdr": false / len(selected) if selected else 0.0}


def _peaks_pair_setup(seed: int, inputs: Path, n_peaks: int) -> dict:
    # four in five peaks of each replicate have a partner in the other
    planted = write_peak_pair(inputs / "rep1.narrowPeak",
                              inputs / "rep2.narrowPeak", seed, n_peaks,
                              n_peaks * 4 // 5)
    return {"planted": planted, "n_peaks": n_peaks}


def _peaks_pair_chain(inputs: Path, out: Path) -> list:
    return [
        ["pair", "--rep1", str(inputs / "rep1.narrowPeak"),
         "--rep2", str(inputs / "rep2.narrowPeak"),
         "--output", str(out / "pairs.tsv")],
        ["curve", "--input", str(out / "pairs.tsv"),
         "--output", str(out / "curve.csv")],
    ]


def _peaks_pair_check(state: dict, inputs: Path, out: Path) -> dict:
    rows = _read_tsv(out / "pairs.tsv")[1:]
    found = {(r[0], int(r[1]), int(r[3])) for r in rows}
    planted = state["planted"]
    if len(rows) != len(planted) or found != planted:
        raise CheckFailed(f"pair matched {len(rows)} peaks, "
                          f"{len(found & planted)} of them planted; "
                          f"{len(planted)} pairs were planted")
    return {"matches": len(rows),
            "unmatched1": state["n_peaks"] - len(rows),
            "unmatched2": state["n_peaks"] - len(rows)}


def _lrt_setup(seed: int, inputs: Path, n: int) -> dict:
    write_s1_scores(inputs / "s1.tsv", n, seed)
    return {}


def _lrt_chain(inputs: Path, out: Path) -> list:
    return [
        ["lrt", "--input", str(inputs / "s1.tsv"),
         "--bootstrap", str(LRT_BOOTSTRAP), "--output", str(out / "lrt.json"),
         "--seed", "0", "--threads", "1"],
    ]


def _lrt_check(state: dict, inputs: Path, out: Path) -> dict:
    result = json.loads((out / "lrt.json").read_text())
    stats = result["bootstrap_stats"]
    if len(stats) != LRT_BOOTSTRAP or result["n_bootstrap"] != LRT_BOOTSTRAP:
        raise CheckFailed(f"lrt ran {len(stats)} bootstraps, "
                          f"asked for {LRT_BOOTSTRAP}")
    observed = result["two_log_lambda"]
    p_value = (sum(s >= observed for s in stats) + 1) / (LRT_BOOTSTRAP + 1)
    if result["p_value"] != p_value:
        raise CheckFailed(f"lrt p_value {result['p_value']} != "
                          f"(#stats >= observed + 1)/(B + 1) = {p_value}")
    return {"p_value": result["p_value"],
            "two_log_lambda": observed,
            "rho_null": result["rho_null"]}


WORKLOADS = {w.name: w for w in (
    Workload("fit-select",
             "S1 scores at n=1e4 through fit, select and curve: the mixture "
             "fit (G^-1 refresh, EM, copula likelihood) does almost all work",
             _fit_select_setup, _fit_select_chain, _fit_select_check,
             size=10_000, warmup_size=1_000, input_sets=2),
    Workload("peaks-pair",
             "two 15k-peak narrowPeak replicates through pair and curve: "
             "per-chromosome peak count drives the quadratic pairing",
             _peaks_pair_setup, _peaks_pair_chain, _peaks_pair_check,
             size=15_000, warmup_size=1_500),
    Workload("lrt-bootstrap",
             "S1 scores at n=1e3 through lrt with 9 bootstraps: ten small "
             "fits where fixed per-call costs of the mixture layer dominate",
             _lrt_setup, _lrt_chain, _lrt_check,
             size=1_000, warmup_size=200, input_sets=2),
)}
