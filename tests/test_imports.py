"""Import graph: scipy loads only on the paths that compute with it, so
`select`, `curve` and a `pair` of one-edge components run on numpy alone,
and `lrt` on numpy and scipy.special.  Every exported name resolves, and so
does every name the benchmark harness under bench/ uses."""

import importlib
import importlib.util
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import idrkit
import idrkit.cli
import idrkit.mixture

MODULES = sorted(f"idrkit.{m.name}" for m in pkgutil.iter_modules(
    idrkit.__path__))

# Runs in a fresh interpreter, in a scratch directory: records which scipy
# packages are loaded after the import and after each path, and that path's
# result.
_PROBE = """
import json, sys
import numpy as np

def loaded():
    return sorted({".".join(m.split(".")[:2]) for m in sys.modules
                   if m.split(".")[0] == "scipy"})

import idrkit, idrkit.cli
from idrkit.ranking import ScoredPairSet, rank_scores
out = {"after_import": loaded()}

with open("fit.tsv", "w") as f:
    f.write("score1\\tscore2\\tposterior\\n")
    for k in range(10):
        f.write(f"{k}\\t{k}\\t{k / 10}\\n")
out["select_exit"] = idrkit.cli.run(["select", "--input", "fit.tsv",
                                     "--idr-threshold", "0.3",
                                     "--output", "sel.tsv"])
out["selected"] = len(open("sel.tsv").readlines()) - 1
out["after_select"] = loaded()

rng = np.random.default_rng(0)
s = rng.normal(size=2000)
with open("scores.tsv", "w") as f:
    f.write("score1\\tscore2\\n")
    f.writelines(f"{v!r}\\t{2.0 * v!r}\\n" for v in s.tolist())
out["curve_exit"] = idrkit.cli.run(["curve", "--input", "scores.tsv",
                                    "--output", "curve.csv"])
rows = [line.split(",") for line in open("curve.csv").readlines()[1:]]
out["curve_mid"] = [float(r[2]) for r in rows[20:80]]
out["after_curve"] = loaded()

# two one-edge components: each peak overlaps exactly one other
rep1 = idrkit.PeakTable(["chr1", "chr1"], [0, 500], [100, 600], [5.0, 6.0],
                        [-1, -1])
rep2 = idrkit.PeakTable(["chr1", "chr1"], [50, 550], [150, 650], [7.0, 8.0],
                        [-1, -1])
out["single_matches"] = [list(m) for m in idrkit.pair_peaks(rep1,
                                                            rep2).matches]
out["after_single_pair"] = loaded()

# one component of two peaks per replicate and three edges: rep1 peak 1
# overlaps both rep2 peaks, so only the assignment solver finds two matches
rep1 = idrkit.PeakTable(["chr1", "chr1"], [0, 90], [100, 200], [5.0, 6.0],
                        [-1, -1])
rep2 = idrkit.PeakTable(["chr1", "chr1"], [50, 180], [150, 300], [7.0, 8.0],
                        [-1, -1])
out["matches"] = [list(m) for m in idrkit.pair_peaks(rep1, rep2).matches]
out["after_pair"] = loaded()

x = rng.normal(size=(600, 2))
ranked = rank_scores(ScoredPairSet(x[:, 0], 0.6 * x[:, 0] + 0.8 * x[:, 1]))
out["fit_finite"] = bool(np.isfinite(
    idrkit.fit(ranked, idrkit.FitConfig(n_inits=1)).loglik))
out["after_fit"] = loaded()

out["one_component"] = list(idrkit.fit_one_component(ranked))
out["after_one_component"] = loaded()
print(json.dumps(out))
"""

# Runs in its own fresh interpreter, as the probe above has already loaded
# scipy.sparse by the time it fits: an `lrt` through the CLI.
_LRT_PROBE = """
import json, sys
import numpy as np
import idrkit.cli

rng = np.random.default_rng(0)
x = rng.normal(size=(300, 2))
with open("scores.tsv", "w") as f:
    f.write("score1\\tscore2\\n")
    f.writelines(f"{a!r}\\t{0.6 * a + 0.8 * b!r}\\n" for a, b in x.tolist())
out = {"lrt_exit": idrkit.cli.run(["lrt", "--input", "scores.tsv",
                                   "--bootstrap", "2", "--inits", "1",
                                   "--seed", "0", "--output", "lrt.json"])}
out["lrt"] = json.load(open("lrt.json"))
out["after_lrt"] = sorted({".".join(m.split(".")[:2]) for m in sys.modules
                           if m.split(".")[0] == "scipy"})
print(json.dumps(out))
"""

PACKAGES = ("scipy.interpolate", "scipy.optimize", "scipy.sparse",
            "scipy.special")


def _probe(tmp_path, probe=_PROBE) -> dict:
    src = Path(idrkit.__file__).resolve().parent.parent
    code = f"import sys; sys.path.insert(0, {str(src)!r})\n" + probe
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True, cwd=tmp_path)
    return json.loads(done.stdout)


def _packages(loaded: list) -> list:
    return [m for m in loaded if m in PACKAGES]


def test_deferred_scipy_packages_load_only_where_used(tmp_path):
    out = _probe(tmp_path)
    assert out["after_import"] == []

    assert out["select_exit"] == 0
    assert out["selected"] > 0
    assert out["after_select"] == []

    assert out["curve_exit"] == 0
    assert all(abs(d - 1.0) < 0.1 for d in out["curve_mid"])
    assert out["after_curve"] == []

    assert out["single_matches"] == [[0, 0, 5.0, 7.0], [1, 1, 6.0, 8.0]]
    assert out["after_single_pair"] == []

    assert out["matches"] == [[0, 0, 5.0, 7.0], [1, 1, 6.0, 8.0]]
    assert _packages(out["after_pair"]) == ["scipy.sparse"]

    assert out["fit_finite"]
    assert "scipy.special" in out["after_fit"]

    rho, loglik = out["one_component"]
    assert abs(rho - 0.6) < 0.05
    assert loglik > 0.0
    assert _packages(out["after_one_component"]) == _packages(
        out["after_fit"])


def test_lrt_loads_only_scipy_special(tmp_path):
    out = _probe(tmp_path, _LRT_PROBE)
    assert out["lrt_exit"] == 0
    assert out["lrt"]["n_bootstrap"] == 2
    assert abs(out["lrt"]["rho_null"] - 0.6) < 0.1
    assert _packages(out["after_lrt"]) == ["scipy.special"]


@pytest.mark.parametrize("name", ["idrkit", *MODULES])
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []


BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name: str):
    """bench/<name>.py, imported under its own name as bench/run.py
    imports it, and dropped from sys.modules again afterwards."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


@pytest.mark.parametrize("workload", ["fit-select", "peaks-pair",
                                      "lrt-bootstrap"])
def test_bench_library_surface(workload, tmp_path):
    """The names bench/workloads.py and bench/tracing.py import, call and
    patch all resolve: each workload's warm-up-sized op runs traced, with
    its check, as a bench run would, so a rename that breaks the bench
    fails here."""
    workloads = _bench_module("workloads")
    tracing = _bench_module("tracing")
    spec = workloads.WORKLOADS[workload]
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    state = spec.setup(1, inputs, spec.warmup_size)
    recorder = tracing.Recorder()
    originals = {name: getattr(idrkit.mixture, name)
                 for name in ("compute_pseudo_data", "em_inner",
                              "copula_log_likelihood")}
    with recorder.tracing("op"):
        assert all(idrkit.cli.run(argv) == 0
                   for argv in spec.chain(inputs, out))
    assert {name: getattr(idrkit.mixture, name)
            for name in originals} == originals
    assert spec.check(state, inputs, out)
    metrics = tracing.layer_metrics(*recorder.take())
    assert set(metrics) >= {"mixture.fit.calls", "peaks.pair.matches",
                            "ranking.rank.calls"}


def test_bench_reads_replicate_p_values():
    """bench/workloads.py writes its score tables from
    SimDataset.pvalues1 and pvalues2."""
    from idrkit.simulate import scenario_preset, simulate_dataset

    data = simulate_dataset(scenario_preset("S1", n=50, seed=0))
    assert data.pvalues1.shape == data.pvalues2.shape == (50,)
    assert data.pvalues1.tobytes() == data.pvalues[0].tobytes()
    assert data.pvalues2.tobytes() == data.pvalues[1].tobytes()
