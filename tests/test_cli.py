"""Command-line interface: exit codes, determinism, manifests, file shapes."""

import contextlib
import dataclasses
import gzip
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idrkit.cli
from idrkit.cli import run

NARROW = "chr1\t{start}\t{end}\tp{i}\t100\t.\t{sig}\t2.0\t1.0\t{summit}\n"


def _peak_file(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text("".join(
        NARROW.format(start=s, end=e, i=i, sig=sig, summit=summit)
        for i, (s, e, sig, summit) in enumerate(rows)))
    return path


def _pair_table(tmp_path, n=200, seed=0, name="pairs.tsv"):
    rng = np.random.default_rng(seed)
    k = rng.random(n) < 0.6
    cov = np.array([[1.0, 0.8], [0.8, 1.0]])
    z = rng.multivariate_normal([0.0, 0.0], np.eye(2), size=n)
    z[k] = 2.5 + rng.multivariate_normal([0.0, 0.0], cov, size=n)[k]
    path = tmp_path / name
    with open(path, "w") as out:
        out.write("score1\tscore2\n")
        for a, b in z:
            out.write(f"{float(a)!r}\t{float(b)!r}\n")
    return path


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "error[usage]:" in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run(["curve", "--output", "x.csv"]) == 1
        assert "error[usage]:" in capsys.readouterr().err

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert run(["curve", "--input", str(tmp_path / "nope.tsv"),
                    "--output", str(out)]) == 2
        assert "error[io]:" in capsys.readouterr().err

    def test_malformed_table_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("score1\tscore2\n1.0\tpotato\n")
        assert run(["curve", "--input", str(bad),
                    "--output", str(tmp_path / "c.csv")]) == 2
        assert "error[parse]:" in capsys.readouterr().err

    def test_directory_input_is_io_error(self, tmp_path, capsys):
        assert run(["fit", "--input", str(tmp_path),
                    "--output-prefix", str(tmp_path / "f")]) == 2
        assert "error[io]:" in capsys.readouterr().err

    def test_empty_table_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        assert run(["curve", "--input", str(empty),
                    "--output", str(tmp_path / "c.csv")]) == 2
        assert "error[empty]:" in capsys.readouterr().err

    def test_strict_nonconvergence_exits_3_with_manifest(self, tmp_path,
                                                         monkeypatch, capsys):
        real_fit = idrkit.cli.fit

        def unconverged_fit(*args, **kwargs):
            return dataclasses.replace(real_fit(*args, **kwargs),
                                       converged=False)
        monkeypatch.setattr(idrkit.cli, "fit", unconverged_fit)
        pairs = _pair_table(tmp_path)
        args = ["fit", "--input", str(pairs), "--inits", "2", "--seed", "1",
                "--output-prefix", str(tmp_path / "f")]
        assert run(args) == 0
        assert run(args + ["--strict"]) == 3
        assert "error[nonconvergence]:" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "f.manifest.json").read_text())
        assert manifest["flags"]["strict"] == "True"


def _run_table(tmp, command, text):
    """Run a table-reading subcommand on `text`; returns its exit code."""
    (tmp / "t.tsv").write_text(text)
    out = "--output-prefix" if command == "fit" else "--output"
    return run([command, "--input", str(tmp / "t.tsv"), out, str(tmp / "o")])


class TestMalformedTables:
    """Every malformed table exits 2 with the line and column at fault."""

    def test_fit_header_with_score1_but_no_score2(self, tmp_path, capsys):
        text = "score1\tother\n1.0\t2.0\n3.0\t4.0\n"
        assert _run_table(tmp_path, "fit", text) == 2
        assert "error[parse]: line 1, column 3:" in capsys.readouterr().err

    def test_select_short_row(self, tmp_path, capsys):
        text = "score1\tscore2\tposterior\n1\t2\t0.9\n3\t4\n"
        assert _run_table(tmp_path, "select", text) == 2
        assert "error[parse]: line 3, column 3:" in capsys.readouterr().err

    def test_select_non_numeric_posterior(self, tmp_path, capsys):
        text = "score1\tscore2\tposterior\n1\t2\t0.9\n3\t4\thigh\n"
        assert _run_table(tmp_path, "select", text) == 2
        assert "error[parse]: line 3, column 3:" in capsys.readouterr().err

    def test_compare_non_numeric_p2(self, tmp_path, capsys):
        text = "p1\tp2\ttruth\n0.1\t0.2\t1\n0.3\tpotato\t0\n"
        assert _run_table(tmp_path, "compare", text) == 2
        assert "error[parse]: line 3, column 2:" in capsys.readouterr().err

    def test_compare_truth_not_zero_or_one(self, tmp_path, capsys):
        text = "p1\tp2\ttruth\n0.1\t0.2\tx\n"
        assert _run_table(tmp_path, "compare", text) == 2
        assert "error[parse]: line 2, column 3:" in capsys.readouterr().err


# header, columns every row must parse, and header names that must be present
_TABLES = {
    "fit": (("score1", "score2"), (0, 1), (0, 1)),
    "curve": (("score1", "score2"), (0, 1), (0, 1)),
    "lrt": (("score1", "score2"), (0, 1), (0, 1)),
    "select": (("score1", "score2", "posterior"), (2,), (2,)),
    "compare": (("p1", "p2", "truth"), (0, 1, 2), (0, 1)),
}


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


@st.composite
def _malformed_tables(draw):
    command = draw(st.sampled_from(sorted(_TABLES)))
    header, parsed, named = _TABLES[command]
    values = {"p1": "0.25", "p2": "0.5", "truth": "1", "posterior": "0.75"}
    rows = [list(header)] + [[values.get(name, str(k + 0.5))
                              for name in header]
                             for k in range(draw(st.integers(1, 6)))]
    defect = draw(st.sampled_from(["field", "non-finite", "short", "header",
                                   "empty"]))
    r = draw(st.integers(1, len(rows) - 1))
    if defect == "field":
        rows[r][draw(st.sampled_from(parsed))] = draw(st.text(
            st.characters(blacklist_characters="\t\n\r\"#",
                          blacklist_categories=("Cs",)),
            max_size=6).filter(lambda t: not _is_number(t)))
    elif defect == "non-finite":
        rows[r][draw(st.sampled_from(parsed))] = draw(
            st.sampled_from(["nan", "inf", "-inf"]))
    elif defect == "short":
        rows[r] = rows[r][:draw(st.integers(1, max(parsed)))]
    elif defect == "header":
        rows[0][draw(st.sampled_from(named))] = "other"
    else:
        rows = draw(st.sampled_from([[], [["# only a comment"]], rows[:1]]))
    return command, "".join("\t".join(row) + "\n" for row in rows)


@given(_malformed_tables())
@settings(max_examples=150, deadline=None)
def test_malformed_table_fuzz(case):
    command, text = case
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stderr(stderr):
        code = _run_table(Path(tmp), command, text)
    assert code == 2, (command, text, stderr.getvalue())
    assert stderr.getvalue().startswith("error["), stderr.getvalue()


class TestPair:
    def test_pair_writes_tsv_and_manifest(self, tmp_path, capsys):
        rep1 = _peak_file(tmp_path, "r1.narrowPeak",
                          [(0, 40, 3.0, 20), (100, 140, 2.0, 20)])
        rep2 = _peak_file(tmp_path, "r2.narrowPeak",
                          [(10, 50, 5.0, 20), (300, 340, 1.0, 20)])
        out = tmp_path / "paired.tsv"
        assert run(["pair", "--rep1", str(rep1), "--rep2", str(rep2),
                    "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].split("\t") == ["chrom", "start1", "end1", "start2",
                                        "end2", "score1", "score2"]
        assert len(lines) == 2
        manifest = json.loads((tmp_path / "paired.tsv.manifest.json")
                              .read_text())
        assert manifest["subcommand"] == "pair"
        assert set(manifest["input_digests"]) == {str(rep1), str(rep2)}
        assert "matched 1 peak pairs" in capsys.readouterr().err

    def test_low_is_better_negates_scores(self, tmp_path):
        rep1 = _peak_file(tmp_path, "r1.narrowPeak", [(0, 40, 3.0, 20)])
        rep2 = _peak_file(tmp_path, "r2.narrowPeak", [(10, 50, 5.0, 20)])
        out = tmp_path / "paired.tsv"
        assert run(["pair", "--rep1", str(rep1), "--rep2", str(rep2),
                    "--score-direction", "low-is-better",
                    "--output", str(out)]) == 0
        row = out.read_text().splitlines()[1].split("\t")
        assert float(row[5]) == -3.0 and float(row[6]) == -5.0


    def _run_pair(self, rep1, rep2, out):
        return run(["pair", "--rep1", str(rep1), "--rep2", str(rep2),
                    "--output", str(out)])

    def test_directory_rep_is_io_error(self, tmp_path, capsys):
        rep2 = _peak_file(tmp_path, "r2.narrowPeak", [(10, 50, 5.0, 20)])
        assert self._run_pair(tmp_path, rep2, tmp_path / "p.tsv") == 2
        assert "error[io]:" in capsys.readouterr().err

    def test_truncated_gzip_is_io_error(self, tmp_path, capsys):
        text = "".join(NARROW.format(start=100 * k, end=100 * k + 40, i=k,
                                     sig=1.0, summit=20) for k in range(500))
        whole = gzip.compress(text.encode())
        rep1 = tmp_path / "r1.narrowPeak.gz"
        rep1.write_bytes(whole[:len(whole) // 2])
        rep2 = _peak_file(tmp_path, "r2.narrowPeak", [(10, 50, 5.0, 20)])
        assert self._run_pair(rep1, rep2, tmp_path / "p.tsv") == 2
        assert "error[io]:" in capsys.readouterr().err

    def test_corrupt_gzip_body_is_io_error(self, tmp_path, capsys):
        text = "".join(NARROW.format(start=100 * k, end=100 * k + 40, i=k,
                                     sig=1.0, summit=20) for k in range(500))
        whole = bytearray(gzip.compress(text.encode()))
        # the 10-byte header stays intact; the deflate body that follows
        # becomes an invalid block
        whole[10:18] = b"\xff" * 8
        rep1 = tmp_path / "r1.narrowPeak.gz"
        rep1.write_bytes(bytes(whole))
        rep2 = _peak_file(tmp_path, "r2.narrowPeak", [(10, 50, 5.0, 20)])
        assert self._run_pair(rep1, rep2, tmp_path / "p.tsv") == 2
        assert "error[io]:" in capsys.readouterr().err

    def test_non_finite_score_is_parse_error(self, tmp_path, capsys):
        rep1 = _peak_file(tmp_path, "r1.narrowPeak",
                          [(0, 40, 3.0, 20), (15, 55, "nan", 20)])
        rep2 = _peak_file(tmp_path, "r2.narrowPeak", [(15, 55, 2.0, 20)])
        out = tmp_path / "p.tsv"
        assert self._run_pair(rep1, rep2, out) == 2
        assert "error[parse]: line 2, column 7" in capsys.readouterr().err
        assert not out.exists()

    def test_identical_intervals_are_deterministic(self, tmp_path):
        rep1 = _peak_file(tmp_path, "r1.narrowPeak",
                          [(100, 140, sig, 20) for sig in (3.0, 1.0, 2.0)])
        rep2 = _peak_file(tmp_path, "r2.narrowPeak",
                          [(100, 140, sig, 20) for sig in (6.0, 4.0, 5.0)])
        outs = [tmp_path / "a.tsv", tmp_path / "b.tsv"]
        for out in outs:
            assert self._run_pair(rep1, rep2, out) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        rows = [line.split("\t") for line in
                outs[0].read_text().splitlines()[1:]]
        assert [float(r[5]) for r in rows] == [3.0, 1.0, 2.0]


class TestFit:
    def test_fit_outputs_and_determinism(self, tmp_path):
        pairs = _pair_table(tmp_path)
        args = ["fit", "--input", str(pairs), "--inits", "3", "--seed", "7"]
        assert run(args + ["--output-prefix", str(tmp_path / "a")]) == 0
        assert run(args + ["--output-prefix", str(tmp_path / "b")]) == 0
        # byte-identical outputs for identical (flags, input, seed)
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.tsv").read_bytes() == \
            (tmp_path / "b.tsv").read_bytes()
        params = json.loads((tmp_path / "a.json").read_text())
        assert set(params) == {"pi1", "mu1", "sigma1_sq", "rho1", "loglik",
                               "converged"}
        assert 0.0 < params["pi1"] < 1.0
        lines = (tmp_path / "a.tsv").read_text().splitlines()
        assert lines[0].split("\t") == ["score1", "score2", "posterior"]
        assert len(lines) == 201
        posts = [float(line.split("\t")[2]) for line in lines[1:]]
        assert all(0.0 <= p <= 1.0 for p in posts)

    def test_manifest_records_seed_and_digest(self, tmp_path):
        pairs = _pair_table(tmp_path)
        assert run(["fit", "--input", str(pairs), "--inits", "2",
                    "--seed", "5",
                    "--output-prefix", str(tmp_path / "f")]) == 0
        manifest = json.loads((tmp_path / "f.manifest.json").read_text())
        assert manifest["rng_seed"] == 5
        assert len(manifest["input_digests"][str(pairs)]) == 64

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        pairs = _pair_table(tmp_path)
        monkeypatch.setenv("IDRKIT_SEED", "11")
        assert run(["fit", "--input", str(pairs), "--inits", "2",
                    "--output-prefix", str(tmp_path / "e")]) == 0
        manifest = json.loads((tmp_path / "e.manifest.json").read_text())
        assert manifest["rng_seed"] == 11


class TestCurve:
    def test_curve_row_count_matches_grid(self, tmp_path):
        pairs = _pair_table(tmp_path)
        out = tmp_path / "curve.csv"
        assert run(["curve", "--input", str(pairs), "--grid", "100",
                    "--df", "6.4", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,psi,psi_prime"
        assert len(lines) == 101
        t = [float(line.split(",")[0]) for line in lines[1:]]
        assert t == sorted(t)


class TestSelect:
    def test_select_pipeline_from_fit(self, tmp_path, capsys):
        pairs = _pair_table(tmp_path)
        assert run(["fit", "--input", str(pairs), "--inits", "3",
                    "--seed", "0",
                    "--output-prefix", str(tmp_path / "f")]) == 0
        out = tmp_path / "selected.tsv"
        assert run(["select", "--input", str(tmp_path / "f.tsv"),
                    "--idr-threshold", "0.05", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].endswith("local_idr\tcumulative_idr")
        cum = [float(line.split("\t")[-1]) for line in lines[1:]]
        assert all(c <= 0.05 for c in cum)
        assert cum == sorted(cum)
        assert f"selected {len(cum)} of 200" in capsys.readouterr().err

    def _fit_table(self, tmp_path, posteriors):
        path = tmp_path / "f.tsv"
        path.write_text("score1\tscore2\tposterior\n" + "".join(
            f"{k}\t{k}\t{p}\n" for k, p in enumerate(posteriors)))
        return path

    @pytest.mark.parametrize("threshold", ["0", "1", "1.5", "-0.1"])
    def test_threshold_outside_unit_interval_is_domain_error(
            self, tmp_path, capsys, threshold):
        path = self._fit_table(tmp_path, [0.99, 0.5, 0.1])
        out = tmp_path / "s.tsv"
        assert run(["select", "--input", str(path), "--idr-threshold",
                    threshold, "--output", str(out)]) == 2
        assert "error[domain]:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["1.7", "-0.2", "nan", "inf"])
    def test_posterior_outside_unit_interval_is_rejected(
            self, tmp_path, capsys, bad):
        path = self._fit_table(tmp_path, [0.99, bad, 0.1])
        out = tmp_path / "s.tsv"
        assert run(["select", "--input", str(path),
                    "--output", str(out)]) == 2
        assert "error[parse]: line 3, column 3:" in capsys.readouterr().err
        assert not out.exists()

    def test_select_requires_posterior_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("score1\tscore2\n1.0\t2.0\n")
        assert run(["select", "--input", str(bad),
                    "--output", str(tmp_path / "s.tsv")]) == 2
        assert "error[parse]:" in capsys.readouterr().err


class TestSimulate:
    def test_simulate_emits_all_tables(self, tmp_path):
        prefix = tmp_path / "sim"
        assert run(["simulate", "--scenario", "S1", "--n", "300",
                    "--reps", "2", "--inits", "2", "--seed", "1",
                    "--output-prefix", str(prefix)]) == 0
        params = (tmp_path / "sim.params.csv").read_text().splitlines()
        assert params[0] == "rep,pi1,mu1,sigma1_sq,rho1,loglik,converged"
        assert len(params) == 5  # 2 reps + mean + sd
        assert params[3].startswith("mean,") and params[4].startswith("sd,")
        calib = (tmp_path / "sim.calibration.csv").read_text().splitlines()
        assert calib[0] == "method,nominal,empirical_fdr,n_selected"
        trade = (tmp_path / "sim.tradeoff.csv").read_text().splitlines()
        assert trade[0] == "method,rep,threshold,incorrect,correct"
        manifest = json.loads((tmp_path / "sim.manifest.json").read_text())
        assert manifest["flags"]["scenario"] == "S1"

    def test_scenario_json_file(self, tmp_path):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({
            "label": "custom",
            "components": [
                {"pi": 0.4, "mu": 0.0, "rho": 0.0},
                {"pi": 0.6, "mu": 2.5, "rho": 0.8, "sigma_sq": 1.0},
            ]}))
        prefix = tmp_path / "c"
        assert run(["simulate", "--scenario", str(scen), "--n", "300",
                    "--reps", "1", "--inits", "2", "--seed", "0",
                    "--output-prefix", str(prefix)]) == 0
        manifest = json.loads((tmp_path / "c.manifest.json").read_text())
        assert str(scen) in manifest["input_digests"]

    def test_unknown_scenario_is_data_error(self, tmp_path, capsys):
        assert run(["simulate", "--scenario", str(tmp_path / "nope.json"),
                    "--output-prefix", str(tmp_path / "x")]) == 2
        assert "error[io]:" in capsys.readouterr().err


class TestCompare:
    def _pvalue_table(self, tmp_path, with_truth=True):
        from idrkit.simulate import scenario_preset, simulate_dataset
        data = simulate_dataset(scenario_preset("S1", n=300, seed=2))
        path = tmp_path / "pvals.tsv"
        with open(path, "w") as out:
            cols = ["p1", "p2"] + (["truth"] if with_truth else [])
            out.write("\t".join(cols) + "\n")
            for i in range(300):
                row = [f"{float(data.pvalues1[i])!r}",
                       f"{float(data.pvalues2[i])!r}"]
                if with_truth:
                    row.append(str(int(data.truth[i])))
                out.write("\t".join(row) + "\n")
        return path

    def test_labeled_tradeoff_table(self, tmp_path):
        path = self._pvalue_table(tmp_path)
        out = tmp_path / "cmp.csv"
        assert run(["compare", "--input", str(path), "--inits", "2",
                    "--seed", "0", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,threshold,incorrect,correct"
        methods = {line.split(",")[0] for line in lines[1:]}
        assert methods == {"idr", "rep1", "fisher", "stouffer"}

    def test_unlabeled_counts_only(self, tmp_path):
        path = self._pvalue_table(tmp_path, with_truth=False)
        out = tmp_path / "cmp.csv"
        assert run(["compare", "--input", str(path), "--inits", "2",
                    "--seed", "0", "--output", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "method,threshold,n_selected"

    def test_requires_p_columns(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("a\tb\n0.1\t0.2\n")
        assert run(["compare", "--input", str(bad),
                    "--output", str(tmp_path / "c.csv")]) == 2
        assert "error[parse]:" in capsys.readouterr().err


class TestLrt:
    def test_lrt_json_fields(self, tmp_path):
        pairs = _pair_table(tmp_path, n=150, seed=3)
        out = tmp_path / "lrt.json"
        assert run(["lrt", "--input", str(pairs), "--bootstrap", "3",
                    "--inits", "2", "--seed", "0",
                    "--output", str(out)]) == 0
        res = json.loads(out.read_text())
        assert set(res) == {"rho_null", "loglik_null", "loglik_alt",
                            "two_log_lambda", "p_value", "n_bootstrap",
                            "bootstrap_stats"}
        assert res["n_bootstrap"] == 3
        assert len(res["bootstrap_stats"]) == 3
        assert 0.0 < res["p_value"] <= 1.0
