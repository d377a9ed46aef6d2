"""End-to-end acceptance gate.

One test per acceptance criterion; each prints a single
``criterion N (...): PASS/FAIL`` line with the measured numbers so the
verdicts can be read off the captured output.  The simulation scenarios are
fitted once per session and shared across the parameter-recovery,
calibration, and discrimination criteria.
"""

import itertools
import time
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from idrkit.curves import correspondence_curve, psi_n
from idrkit.lrt import bootstrap_lrt
from idrkit.mixture import (FitConfig, Theta, compute_pseudo_data, em_inner,
                            fit, log_likelihood, marginal_mixture_cdf,
                            marginal_mixture_quantile)
from idrkit.peaks import PeakTable, overlap_length, pair_peaks
from idrkit.ranking import ScoredPairSet, rank_scores
from idrkit.selection import IdrTable, idr_table, select_at_idr
from idrkit.simulate import (GENUINE, correct_calls_at_incorrect,
                             method_statistics, scenario_preset,
                             simulate_dataset)

N_SIM = 10_000
N_REPS = 10
BASELINES = ("rep1", "fisher", "stouffer")


class _Peak(NamedTuple):
    chrom: str
    start: int
    end: int
    score: float


def _peak_table(peaks):
    """The PeakTable of a list of _Peak rows, none with a summit."""
    chrom, start, end, score = zip(*peaks)
    return PeakTable(chrom, start, end, score, [-1] * len(peaks))


def _verdict(label, checks):
    """checks: list of (ok, detail) pairs; print one line, then assert."""
    ok = all(c for c, _ in checks)
    failing = "; ".join(d for c, d in checks if not c)
    passing = "; ".join(d for c, d in checks if c)
    print(f"{label}: {'PASS' if ok else 'FAIL'} "
          f"[{failing if failing else passing}]")
    assert ok, f"{label}: {failing}"


class _ScenarioRun:
    """Ten fitted replicate datasets of one scenario."""

    def __init__(self, name):
        start = time.perf_counter()
        self.thetas = []
        self.reps = []  # (truth, per-signal statistic dict, idr table)
        for rep in range(N_REPS):
            data = simulate_dataset(scenario_preset(name, n=N_SIM, seed=rep))
            ranked = rank_scores(data.scores())
            result = fit(ranked, FitConfig(rng_seed=rep, threads=4))
            local = 1.0 - result.posterior
            table = IdrTable.from_local_idr(local)
            self.thetas.append(result.theta)
            stats = method_statistics(data.pvalues1, data.pvalues2, local)
            self.reps.append((data.truth, stats, table))
        self.elapsed = time.perf_counter() - start

    def mean(self, attr):
        return float(np.mean([getattr(t, attr) for t in self.thetas]))

    def empirical_fdr(self, alpha):
        """Mean FDR of cumulative-IDR selection at level alpha."""
        fdrs = []
        for truth, _, table in self.reps:
            n_sel = select_at_idr(table, alpha)
            sel = table.original_index[:n_sel]
            fdrs.append(float(np.mean(truth[sel] != GENUINE)) if n_sel
                        else 0.0)
        return float(np.mean(fdrs))


@pytest.fixture(scope="session")
def s1():
    return _ScenarioRun("S1")


@pytest.fixture(scope="session")
def s2():
    return _ScenarioRun("S2")


@pytest.fixture(scope="session")
def s3():
    return _ScenarioRun("S3")


@pytest.fixture(scope="session")
def s4():
    return _ScenarioRun("S4")


def test_criterion_1_s1_parameter_recovery(s1):
    bands = {"pi1": (0.63, 0.67), "rho1": (0.82, 0.86),
             "mu1": (2.40, 2.65), "sigma1_sq": (0.93, 1.08)}
    checks = [(lo <= s1.mean(a) <= hi, f"{a}={s1.mean(a):.4f} in [{lo},{hi}]")
              for a, (lo, hi) in bands.items()]
    checks.append((s1.elapsed < 300.0, f"runtime {s1.elapsed:.0f}s < 300s"))
    _verdict("criterion 1 (S1 parameter recovery)", checks)


def test_criterion_2_s2_s3_parameter_recovery(s2, s3):
    checks = [
        (0.35 <= s2.mean("rho1") <= 0.45, f"S2 rho1={s2.mean('rho1'):.4f}"),
        (0.28 <= s2.mean("pi1") <= 0.32, f"S2 pi1={s2.mean('pi1'):.4f}"),
        (0.035 <= s3.mean("pi1") <= 0.06, f"S3 pi1={s3.mean('pi1'):.4f}"),
        (s3.mean("sigma1_sq") < 1.0,
         f"S3 sigma1_sq={s3.mean('sigma1_sq'):.4f} < 1 (biased low)"),
    ]
    _verdict("criterion 2 (S2/S3 parameter recovery)", checks)


def test_criterion_3_calibration(s1, s4):
    checks = []
    for alpha in (0.01, 0.05, 0.1, 0.2):
        emp = s1.empirical_fdr(alpha)
        checks.append((abs(emp - alpha) <= 0.05,
                       f"S1 empFDR({alpha})={emp:.3f}"))
    emp4 = s4.empirical_fdr(0.05)
    checks.append((emp4 > 0.05,
                   f"S4 empFDR(0.05)={emp4:.3f} > 0.05 (anti-conservative)"))
    _verdict("criterion 3 (IDR calibration)", checks)


def test_criterion_4_discrimination_dominance(s1, s3):
    checks = []
    for name, run in (("S1", s1), ("S3", s3)):
        for k in (50, 100, 200, 500):
            for base in BASELINES:
                wins = sum(
                    correct_calls_at_incorrect(stats["idr"], truth, k)
                    >= correct_calls_at_incorrect(stats[base], truth, k)
                    for truth, stats, _ in run.reps)
                checks.append((wins >= 8,
                               f"{name} k={k} idr>={base} {wins}/10"))
    _verdict("criterion 4 (discrimination dominance)", checks)


def _top_block(n, t0, seed=0):
    """Ranks agree exactly on the top t0-fraction, independent below."""
    rng = np.random.default_rng(seed)
    m = int(round(t0 * n))
    top = float(n) + np.arange(m, dtype=float)
    return rank_scores(ScoredPairSet(
        np.concatenate([top, rng.permutation(n - m).astype(float)]),
        np.concatenate([top, rng.permutation(n - m).astype(float)])))


def test_criterion_5_correspondence_closed_forms():
    n = 10_000
    bound = 3.0 / np.sqrt(n)
    rng = np.random.default_rng(0)
    indep = rank_scores(ScoredPairSet(rng.normal(size=n),
                                      rng.normal(size=n)))
    grid = np.linspace(0.05, 0.99, 48)
    sup2 = max(abs(psi_n(indep, float(t)) - t * t) for t in grid)

    t0 = 0.5
    block = _top_block(n, t0, seed=1)
    tail = np.linspace(0.52, 0.99, 48)
    sup3 = max(abs(psi_n(block, float(t))
                   - (t * t - 2.0 * t * t0 + t0) / (1.0 - t0)) for t in tail)
    _verdict("criterion 5 (correspondence closed forms)", [
        (sup2 < bound, f"independent sup|psi-t^2|={sup2:.4f} < {bound:.3f}"),
        (sup3 < bound, f"top-block sup err={sup3:.4f} < {bound:.3f}"),
    ])


def test_criterion_5_derivative_transition_clause():
    # stated clause: psi_prime < 0.2 for t < 0.4 on the top-block curve
    # with t0 = 0.5.  In that construction the reference derivative on
    # t < t0 is exactly 1 (matched region), so the bound cannot hold;
    # the test states the clause as written and is expected to fail.
    curve = correspondence_curve(_top_block(10_000, 0.5, seed=1))
    mask = curve.t_grid < 0.4
    worst = float(curve.psi_prime[mask].max())
    _verdict("criterion 5 (derivative transition clause)",
             [(worst < 0.2, f"max psi_prime on t<0.4 = {worst:.3f} < 0.2")])


FAST = FitConfig(n_inits=3, rng_seed=0, refine_iters=10)


def test_criterion_6_bootstrap_lrt():
    data = simulate_dataset(scenario_preset("S1", n=1000, seed=0))
    ranked = rank_scores(data.scores())
    res = bootstrap_lrt(ranked, n_bootstrap=100, seed=0,
                        fit_config=replace(FAST, threads=4))
    checks = [(res.p_value == pytest.approx(1.0 / 101.0),
               f"S1 p={res.p_value:.4f} == 1/101")]

    retained = 0
    for trial in range(10):
        rng = np.random.default_rng(100 + trial)
        z = rng.multivariate_normal([0.0, 0.0],
                                    [[1.0, 0.6], [0.6, 1.0]], size=500)
        rk = rank_scores(ScoredPairSet(z[:, 0], z[:, 1]))
        r = bootstrap_lrt(rk, n_bootstrap=19, seed=trial,
                          fit_config=replace(FAST, threads=4))
        retained += int(r.p_value > 0.05)
    checks.append((retained >= 8, f"null rho=0.6: {retained}/10 p>0.05"))
    _verdict("criterion 6 (bootstrap LRT direction)", checks)


def test_criterion_7_property_suites():
    checks = []
    rng = np.random.default_rng(7)

    # rank invariance of fit and curves under monotone transforms
    s1v, s2v = rng.normal(size=400), rng.normal(size=400)
    a = rank_scores(ScoredPairSet(s1v, s2v))
    b = rank_scores(ScoredPairSet(np.exp(s1v), s2v ** 3))
    fa, fb = fit(a, FAST), fit(b, FAST)
    same_fit = fa.theta == fb.theta
    ca, cb = correspondence_curve(a), correspondence_curve(b)
    same_curve = np.array_equal(ca.psi, cb.psi)
    checks.append((same_fit and same_curve, "rank invariance"))

    # inner-EM log-likelihood monotonicity from 100 random starts
    ref = Theta(0.65, 2.5, 1.0, 0.84)
    pseudo = compute_pseudo_data(a, ref)
    monotone = True
    for _ in range(100):
        theta0 = Theta(float(rng.uniform(0.05, 0.95)),
                       float(rng.uniform(0.5, 4.0)),
                       float(rng.uniform(0.2, 2.0)),
                       float(rng.uniform(0.05, 0.95)))
        _, _, trace = em_inner(pseudo, theta0, tol=0.0, max_iters=20)
        monotone &= bool(np.all(np.diff(trace) >= -1e-7))
    checks.append((monotone, "inner-EM monotone loglik (100 starts)"))

    # G / G^-1 round trip on a 999-point grid
    u = np.arange(1, 1000) / 1000.0
    worst = 0.0
    for theta in (ref, Theta(0.3, 1.2, 0.5, 0.4)):
        z = marginal_mixture_quantile(u, theta)
        worst = max(worst, float(np.max(np.abs(
            marginal_mixture_cdf(z, theta) - u))))
    checks.append((worst <= 1e-9, f"round-trip err {worst:.2e} <= 1e-9"))

    # cumulative IDR is nondecreasing along the table
    table = idr_table(a, fa.theta)
    checks.append((bool(np.all(np.diff(table.cumulative_idr) >= -1e-15)),
                   "cumulative IDR monotone"))

    # Frechet bounds on psi_n
    frechet = True
    for n in (10, 100, 1000):
        ranked = rank_scores(ScoredPairSet(rng.normal(size=n),
                                           rng.normal(size=n)))
        for t in (0.1, 0.5, 0.9):
            for v in (0.2, 0.7, 1.0):
                val = psi_n(ranked, t, v)
                frechet &= val <= min(t, v) + 1.0 / n + 1e-12
                frechet &= val >= max(t + v - 1.0, 0.0) - 2.0 / n - 1e-12
    checks.append((frechet, "Frechet bounds"))

    # pairing is one-to-one; boundary-touching peaks never pair
    rep1 = _peak_table([_Peak("chr1", 10 * i, 10 * i + 15, float(i))
                        for i in range(20)])
    rep2 = _peak_table([_Peak("chr1", 10 * i + 3, 10 * i + 18, float(i))
                        for i in range(20)])
    paired = pair_peaks(rep1, rep2)
    one_to_one = (len({i for i, _, _, _ in paired.matches})
                  == len(paired.matches)
                  == len({j for _, j, _, _ in paired.matches}))
    touching = pair_peaks(_peak_table([_Peak("chr1", 0, 40, 1.0)]),
                          _peak_table([_Peak("chr1", 40, 80, 1.0)]))
    adjacent = pair_peaks(_peak_table([_Peak("chr1", 0, 40, 1.0)]),
                          _peak_table([_Peak("chr1", 39, 80, 1.0)]))
    checks.append((one_to_one and not touching.matches
                   and len(adjacent.matches) == 1,
                   "pairing one-to-one and boundary overlap"))

    _verdict("criterion 7 (property suites)", checks)


def _grid_argmax(score_fn, axes):
    best, best_score = None, -np.inf
    for pi, mu, s2, rho in itertools.product(*axes):
        theta = Theta(float(pi), float(mu), float(s2), float(rho))
        try:
            score = score_fn(theta)
        except Exception:
            continue
        if score > best_score:
            best, best_score = theta, score
    return best, best_score


def _exhaustive_best(rep1, rep2):
    feasible = [(i, j) for i in range(len(rep1)) for j in range(len(rep2))
                if overlap_length(rep1[i], rep2[j]) >= 1]
    k_max = min(len(rep1), len(rep2))
    for k in range(k_max, -1, -1):
        best = None
        for combo in itertools.combinations(feasible, k):
            if (len({i for i, _ in combo}) < k
                    or len({j for _, j in combo}) < k):
                continue
            total = sum(overlap_length(rep1[i], rep2[j]) for i, j in combo)
            best = total if best is None else max(best, total)
        if best is not None:
            return k, best
    return 0, 0


def test_criterion_8_oracle_equivalence():
    checks = []
    # the fully-settled fit maximizes the mixture likelihood on its own
    # pseudo-data; an exhaustive lattice search over that surface must not
    # find a better point more than one 0.05 step away in any coordinate
    step = 0.05
    for seed in range(3):
        data = simulate_dataset(scenario_preset("S1", n=200, seed=seed))
        ranked = rank_scores(data.scores())
        theta = fit(ranked, FitConfig(rng_seed=0, refine_iters=2000)).theta
        pseudo = compute_pseudo_data(ranked, theta)
        center = (theta.pi1, theta.mu1, theta.sigma1_sq, theta.rho1)
        offsets = np.arange(-3, 4) * step
        fine_axes = (np.clip(center[0] + offsets, 0.01, 0.99),
                     np.clip(center[1] + offsets, 1e-3, None),
                     np.clip(center[2] + offsets, 0.02, None),
                     np.clip(center[3] + offsets, 0.01, 0.99))
        coarse_axes = (np.arange(0.10, 0.96, 0.15),
                       np.arange(0.5, 4.01, 0.35),
                       np.arange(0.25, 2.01, 0.35),
                       np.arange(0.05, 0.96, 0.15))
        fn = lambda th: log_likelihood(pseudo, th)
        fine, fine_score = _grid_argmax(fn, fine_axes)
        coarse, coarse_score = _grid_argmax(fn, coarse_axes)
        best = fine if fine_score >= coarse_score else coarse
        diff = max(abs(best.pi1 - theta.pi1), abs(best.mu1 - theta.mu1),
                   abs(best.sigma1_sq - theta.sigma1_sq),
                   abs(best.rho1 - theta.rho1))
        checks.append((diff <= step + 1e-9,
                       f"fit vs grid seed {seed}: max diff {diff:.3f}"))

    # pairing equals exhaustive matching on every instance with <= 12 peaks
    rng = np.random.default_rng(8)
    agree = True
    for _ in range(30):
        n1 = int(rng.integers(1, 7))
        n2 = int(rng.integers(1, min(7, 13 - n1)))

        def draw(n):
            out = []
            for _ in range(n):
                start = int(rng.integers(0, 250))
                out.append(_Peak("chr1", start,
                                 start + int(rng.integers(10, 60)),
                                 float(rng.random())))
            return out

        rep1, rep2 = draw(n1), draw(n2)
        paired = pair_peaks(_peak_table(rep1), _peak_table(rep2))
        total = sum(overlap_length(rep1[i], rep2[j])
                    for i, j, _, _ in paired.matches)
        agree &= (len(paired.matches), total) == _exhaustive_best(rep1, rep2)
    checks.append((agree, "pairing equals exhaustive matching (30 instances)"))
    _verdict("criterion 8 (oracle equivalence)", checks)
