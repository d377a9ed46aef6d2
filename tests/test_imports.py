"""Import graph: scipy.optimize, scipy.interpolate and scipy.sparse load only
on the paths that use them, so every subcommand starts without them."""

import json
import subprocess
import sys
from pathlib import Path

import idrkit

DEFERRED = ("scipy.interpolate", "scipy.optimize", "scipy.sparse")

# Runs in a fresh interpreter: records which deferred packages are loaded
# after the import and after each path that needs one, and that path's result.
_PROBE = """
import json, sys
import numpy as np

def loaded():
    return sorted(m for m in {deferred!r} if m in sys.modules)

import idrkit, idrkit.cli
from idrkit.ranking import ScoredPairSet, rank_scores
out = {{"after_import": loaded()}}

# one component of two peaks per replicate and three edges: rep1 peak 1
# overlaps both rep2 peaks, so only the assignment solver finds two matches
rep1 = idrkit.PeakTable(["chr1", "chr1"], [0, 90], [100, 200], [5.0, 6.0],
                        [-1, -1])
rep2 = idrkit.PeakTable(["chr1", "chr1"], [50, 180], [150, 300], [7.0, 8.0],
                        [-1, -1])
out["matches"] = [list(m) for m in idrkit.pair_peaks(rep1, rep2).matches]
out["after_pair"] = loaded()

rng = np.random.default_rng(0)
s = rng.normal(size=2000)
curve = idrkit.correspondence_curve(rank_scores(ScoredPairSet(s, 2.0 * s)))
out["curve_mid"] = curve.psi_prime[20:80].tolist()
out["after_curve"] = loaded()

x = rng.normal(size=(2000, 2))
ranked = rank_scores(ScoredPairSet(x[:, 0], 0.6 * x[:, 0] + 0.8 * x[:, 1]))
out["one_component"] = list(idrkit.fit_one_component(ranked))
out["after_one_component"] = loaded()
print(json.dumps(out))
"""


def _probe() -> dict:
    src = Path(idrkit.__file__).resolve().parent.parent
    code = (f"import sys; sys.path.insert(0, {str(src)!r})\n"
            + _PROBE.format(deferred=DEFERRED))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout)


def test_deferred_scipy_packages_load_only_where_used():
    out = _probe()
    assert out["after_import"] == []

    assert out["matches"] == [[0, 0, 5.0, 7.0], [1, 1, 6.0, 8.0]]
    assert out["after_pair"] == ["scipy.sparse"]

    assert all(abs(d - 1.0) < 0.1 for d in out["curve_mid"])
    assert "scipy.interpolate" in out["after_curve"]

    rho, loglik = out["one_component"]
    assert abs(rho - 0.6) < 0.05
    assert loglik > 0.0
    assert out["after_one_component"] == list(DEFERRED)
