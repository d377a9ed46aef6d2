"""Golden answers: what the CLI and the library's fit give on seeded inputs,
held against the committed tests/golden.json.

The inputs are regenerated from seeds with bench/workloads.py's writers:
- fit-select: S1 scores, n = 10,000, seed 2, through `fit`, `select` at IDR
  0.01, 0.05 and 0.1, and `curve`;
- lrt: S1 scores, n = 1,000, seed 2, through `lrt --strict` with 9
  bootstraps (exit 0 says the observed-data fit converged);
- pair: two 15,000-peak narrowPeak replicates with 12,000 planted pairs,
  seed 1, through `pair` and `curve`;
- S1-S4: n = 2,000, seed 0, through `fit` with the default FitConfig.

Counts, flags, p-values and `pairs.tsv` (whose scores are parsed text written
back) compare exactly.  The other floats, as float.hex, and the sha256 of the
files that hold floats compare bit for bit when numpy and scipy are the
versions the file was written with.  Elsewhere numpy's SIMD exp and log and
the spline's solve may round differently, so floats compare within 1e-12
relative and those hashes are not compared.  The manifests hold paths and
are not recorded.

After a change that moves an answer on purpose, rewrite the file with

    python tests/test_golden.py --update
"""

import argparse
import hashlib
import json
import math
import sys
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import scipy  # noqa: E402

import idrkit.cli  # noqa: E402
from idrkit.mixture import (Theta, compute_pseudo_data,  # noqa: E402
                            copula_log_likelihood, fit)
from idrkit.ranking import ScoredPairSet, rank_scores  # noqa: E402
from idrkit.selection import IdrTable, select_at_idr  # noqa: E402
from idrkit.simulate import scenario_preset, simulate_dataset  # noqa: E402
from test_imports import _bench_module  # noqa: E402

GOLDEN = Path(__file__).with_name("golden.json")
IDR_LEVELS = (0.01, 0.05, 0.1)
REL_TOL = 1e-12
CASES = ("fit-select", "lrt", "pair", "S1", "S2", "S3", "S4")


def _versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _cli(*argv) -> int:
    return idrkit.cli.run([str(a) for a in argv])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _data_rows(path: Path) -> int:
    return len(path.read_text().splitlines()) - 1


def _hex(values: dict) -> dict:
    return {k: float(v).hex() for k, v in values.items()}


def _fit_select(work: Path, workloads) -> dict:
    scores = work / "s1.tsv"
    workloads.write_s1_scores(scores, 10_000, 2)
    assert _cli("fit", "--input", scores, "--output-prefix", work / "fit",
                "--seed", 0, "--threads", 1) == 0
    exact, files = {}, {}
    for level in IDR_LEVELS:
        out = work / f"selected_{level}.tsv"
        assert _cli("select", "--input", work / "fit.tsv",
                    "--idr-threshold", level, "--output", out) == 0
        exact[f"selected_at_{level}"] = _data_rows(out)
        files[out.name] = _sha256(out)
    assert _cli("curve", "--input", scores, "--output",
                work / "curve.csv") == 0
    fit_json = json.loads((work / "fit.json").read_text())
    exact["converged"] = fit_json["converged"]
    theta = Theta(*(fit_json[f.name] for f in fields(Theta)))
    table = np.loadtxt(scores, delimiter="\t", skiprows=1)
    ranked = rank_scores(ScoredPairSet(table[:, 0], table[:, 1]))
    floats = {**asdict(theta), "loglik": fit_json["loglik"],
              "copula_loglik": copula_log_likelihood(
                  compute_pseudo_data(ranked, theta), theta)}
    for name in ("fit.json", "fit.tsv", "curve.csv"):
        files[name] = _sha256(work / name)
    return {"exact": exact, "floats": _hex(floats), "float_files": files}


def _lrt(work: Path, workloads) -> dict:
    scores = work / "s1.tsv"
    workloads.write_s1_scores(scores, 1_000, 2)
    code = _cli("lrt", "--input", scores, "--bootstrap", 9,
                "--output", work / "lrt.json", "--seed", 0, "--threads", 1,
                "--strict")
    assert code in (0, 3)
    result = json.loads((work / "lrt.json").read_text())
    floats = {**result["theta_alt"],
              **{k: result[k] for k in ("loglik_alt", "rho_null",
                                        "loglik_null", "two_log_lambda")},
              **{f"bootstrap_stats[{b}]": s
                 for b, s in enumerate(result["bootstrap_stats"])}}
    return {"exact": {"converged": code == 0, "p_value": result["p_value"],
                      "n_bootstrap": result["n_bootstrap"]},
            "floats": _hex(floats),
            "float_files": {"lrt.json": _sha256(work / "lrt.json")}}


def _pair(work: Path, workloads) -> dict:
    rep1, rep2 = work / "rep1.narrowPeak", work / "rep2.narrowPeak"
    workloads.write_peak_pair(rep1, rep2, 1, 15_000, 12_000)
    assert _cli("pair", "--rep1", rep1, "--rep2", rep2,
                "--output", work / "pairs.tsv") == 0
    assert _cli("curve", "--input", work / "pairs.tsv",
                "--output", work / "curve.csv") == 0
    return {"exact": {"pairs": _data_rows(work / "pairs.tsv"),
                      "pairs.tsv": _sha256(work / "pairs.tsv")},
            "floats": {},
            "float_files": {"curve.csv": _sha256(work / "curve.csv")}}


def _scenario(name: str) -> dict:
    data = simulate_dataset(scenario_preset(name, n=2_000, seed=0))
    result = fit(rank_scores(ScoredPairSet(-data.pvalues1, -data.pvalues2)))
    table = IdrTable.from_local_idr(1.0 - result.posterior)
    exact = {f"selected_at_{level}": select_at_idr(table, level)
             for level in IDR_LEVELS}
    floats = {**asdict(result.theta), "loglik": result.loglik,
              "copula_loglik": result.copula_loglik}
    return {"exact": {**exact, "converged": result.converged},
            "floats": _hex(floats), "float_files": {}}


def answers(work: Path) -> dict:
    """Every case's answers, with its files written under `work`."""
    workloads = _bench_module("workloads")
    cases = {}
    for case, run in (("fit-select", _fit_select), ("lrt", _lrt),
                      ("pair", _pair)):
        (work / case).mkdir()
        cases[case] = run(work / case, workloads)
    for name in ("S1", "S2", "S3", "S4"):
        cases[name] = _scenario(name)
    return {"versions": _versions(), "cases": cases}


@pytest.fixture(scope="module")
def got(tmp_path_factory):
    return answers(tmp_path_factory.mktemp("golden"))["cases"]


@pytest.fixture(scope="module")
def want():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES)
def test_exact_answers(case, got, want):
    assert got[case]["exact"] == want["cases"][case]["exact"]


@pytest.mark.parametrize("case", CASES)
def test_floats_within_tolerance(case, got, want):
    new, old = got[case]["floats"], want["cases"][case]["floats"]
    assert new.keys() == old.keys()
    moved = {k: (old[k], new[k]) for k in old if not math.isclose(
        float.fromhex(new[k]), float.fromhex(old[k]), rel_tol=REL_TOL)}
    assert moved == {}


@pytest.mark.parametrize("case", CASES)
def test_floats_bit_for_bit(case, got, want):
    if want["versions"] != _versions():
        pytest.skip(f"recorded with {want['versions']}, running "
                    f"{_versions()}: floats compare within {REL_TOL} "
                    "relative only, and the float-bearing files' hashes are "
                    "not compared")
    for part in ("floats", "float_files"):
        assert got[case][part] == want["cases"][case][part]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Rewrite tests/golden.json from the code in src/.")
    parser.add_argument("--update", action="store_true", required=True)
    parser.parse_args()
    with tempfile.TemporaryDirectory() as work:
        record = answers(Path(work))
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
