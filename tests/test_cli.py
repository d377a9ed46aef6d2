"""Command-line interface: exit codes, determinism, manifests, file shapes."""

import contextlib
import dataclasses
import gzip
import io
import json
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idrkit.cli
import idrkit.curves
import idrkit.errors
import idrkit.lrt
import idrkit.simulate
from idrkit.cli import run

NARROW = "chr1\t{start}\t{end}\tp{i}\t100\t.\t{sig}\t2.0\t1.0\t{summit}\n"


def _peak_file(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text("".join(
        NARROW.format(start=s, end=e, i=i, sig=sig, summit=summit)
        for i, (s, e, sig, summit) in enumerate(rows)))
    return path


def _strict_json(path):
    """The JSON document in `path`; NaN and Infinity, which JSON lacks,
    raise ValueError."""
    def refuse(name):
        raise ValueError(f"{name} in {path}")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


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
        manifest = _strict_json(tmp_path / "f.manifest.json")
        assert manifest["flags"]["strict"] == "True"

    @pytest.mark.parametrize("command", ["lrt", "simulate"])
    def test_strict_nonconvergence_of_lrt_and_simulate(
            self, command, tmp_path, monkeypatch, capsys):
        module = getattr(idrkit, command)
        real_fit = module.fit

        def unconverged_fit(*args, **kwargs):
            return dataclasses.replace(real_fit(*args, **kwargs),
                                       converged=False)
        monkeypatch.setattr(module, "fit", unconverged_fit)
        out = tmp_path / "o"
        if command == "lrt":
            args = ["lrt", "--input", str(_pair_table(tmp_path, n=150)),
                    "--bootstrap", "1", "--output", str(out)]
        else:
            args = ["simulate", "--n", "300", "--reps", "2",
                    "--output-prefix", str(out)]
        args += ["--inits", "2", "--seed", "1"]
        assert run(args) == 0
        assert run(args + ["--strict"]) == 3
        assert ("error[nonconvergence]: " + {
            "lrt": "the observed-data fit's selected start did not meet",
            "simulate": "the selected starts of replicates 0, 1 did not "
                        "meet"}[command]
            in capsys.readouterr().err)
        manifest = _strict_json(tmp_path / "o.manifest.json")
        assert manifest["flags"]["strict"] == "True"

    @pytest.mark.parametrize("command", ["fit", "lrt"])
    def test_strict_names_the_selected_start(self, command, tmp_path,
                                             capsys):
        # on these scores start 1 converges but loses to the unconverged
        # start 0, so "no start met the outer tolerance" would be false
        data = idrkit.simulate.simulate_dataset(
            idrkit.simulate.scenario_preset("S1", n=1500, seed=9))
        scores = tmp_path / "s1.tsv"
        scores.write_text("score1\tscore2\n" + "".join(
            f"{a!r}\t{b!r}\n" for a, b in zip((-data.pvalues1).tolist(),
                                              (-data.pvalues2).tolist())))
        out = str(tmp_path / "o")
        args = {"fit": ["fit", "--output-prefix", out],
                "lrt": ["lrt", "--bootstrap", "1", "--output", out]}[command]
        assert run(args + ["--input", str(scores), "--strict", "--inits", "2",
                           "--seed", "1"]) == 3
        expected = {"fit": "the selected start (start 0) did not meet",
                    "lrt": "the observed-data fit's selected start did not "
                           "meet"}[command]
        err = capsys.readouterr().err
        assert f"error[nonconvergence]: {expected} the outer tolerance" in err

    @pytest.mark.parametrize("seed", ["-1", "abc"])
    def test_bad_seed_flag_is_usage_error(self, seed, tmp_path, capsys):
        assert run(["fit", "--input", str(_pair_table(tmp_path)),
                    "--seed", seed,
                    "--output-prefix", str(tmp_path / "f")]) == 1
        assert "error[usage]:" in capsys.readouterr().err
        assert not (tmp_path / "f.json").exists()

    @pytest.mark.parametrize("seed", ["-1", "abc", "1.5"])
    def test_bad_seed_env_is_usage_error(self, seed, tmp_path, monkeypatch,
                                         capsys):
        monkeypatch.setenv("IDRKIT_SEED", seed)
        assert run(["fit", "--input", str(_pair_table(tmp_path)),
                    "--output-prefix", str(tmp_path / "f")]) == 1
        assert "error[usage]: $IDRKIT_SEED:" in capsys.readouterr().err
        assert not (tmp_path / "f.json").exists()

    @pytest.mark.parametrize("command, flag", [
        ("fit", "--inits"), ("fit", "--threads"), ("lrt", "--bootstrap"),
        ("lrt", "--threads"), ("simulate", "--n"), ("simulate", "--reps"),
        ("simulate", "--inits"), ("compare", "--threads")])
    @pytest.mark.parametrize("value", ["0", "-3", "2.5", "many"])
    def test_bad_count_flag_is_usage_error(self, command, flag, value,
                                           tmp_path, capsys):
        pairs, out = _pair_table(tmp_path), str(tmp_path / "o")
        args = {"fit": ["--input", str(pairs), "--output-prefix", out],
                "lrt": ["--input", str(pairs), "--output", out],
                "simulate": ["--n", "300", "--output-prefix", out],
                "compare": ["--input", str(pairs), "--output", out]}[command]
        assert run([command, *args, flag, value]) == 1
        assert capsys.readouterr().err.startswith(
            f"error[usage]: argument {flag}: {value!r} is not an integer >= 1")
        assert list(tmp_path.iterdir()) == [pairs]


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

    def test_one_fault_order(self, tmp_path, capsys):
        # a short line, then a field that does not convert, then a value
        # that breaks a rule, wherever each one lies in the file
        text = ("score1\tscore2\tposterior\n1\t2\t0.9\n3\t4\t1.5\n"
                "5\t6\t0.2\n")
        assert _run_table(tmp_path, "select", text) == 2
        assert capsys.readouterr().err == (
            "error[parse]: line 3, column 3: '1.5' is not a probability in "
            "[0, 1]\n")
        text += "7\t8\thigh\n"
        assert _run_table(tmp_path, "select", text) == 2
        assert capsys.readouterr().err == (
            "error[parse]: line 5, column 3: could not convert string to "
            "float: 'high'\n")
        assert _run_table(tmp_path, "select", text + "9\t10\n") == 2
        assert capsys.readouterr().err == (
            "error[parse]: line 6, column 3: expected 3 columns, got 2\n")

    @pytest.mark.parametrize("command, text, message", [
        ("pair", NARROW.format(start=0, end=40, i=0, sig=1.0, summit=20)
         + "# c\nchr1\t100\t140\tp1\t100\t.\t1.0\n",
         "line 3, column 8: expected 10 columns, got 7"),
        ("fit", "score1\tscore2\n1\t2\n3\n",
         "line 3, column 2: expected 2 columns, got 1"),
        ("curve", "# c\n1\t2\n\n3\n",
         "line 4, column 2: expected 2 columns, got 1"),
        ("lrt", "p1\tp2\tx\n0.1\t0.2\ta\n0.3\n",
         "line 3, column 2: expected 2 columns, got 1"),
        ("select", "score1\tscore2\tposterior\n1\t2\t0.5\n3\t4\n",
         "line 3, column 3: expected 3 columns, got 2"),
        ("compare", "p1\tp2\ttruth\n0.5\t0.5\t1\n0.5\t0.5\n",
         "line 3, column 3: expected 3 columns, got 2"),
    ], ids=["pair", "fit", "curve", "lrt", "select", "compare"])
    def test_short_line_message_is_shared(self, command, text, message,
                                          tmp_path, capsys):
        if command == "pair":
            peaks = tmp_path / "r.narrowPeak"
            peaks.write_text(text)
            code = run(["pair", "--rep1", str(peaks), "--rep2", str(peaks),
                        "--output", str(tmp_path / "o")])
        else:
            code = _run_table(tmp_path, command, text)
        assert code == 2
        assert capsys.readouterr().err == f"error[parse]: {message}\n"

    @pytest.mark.parametrize("command", ["fit", "curve", "lrt"])
    @pytest.mark.parametrize("column", [1, 2])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_score(self, command, column, value, tmp_path,
                              capsys):
        row = ["3.0", "4.0"]
        row[column - 1] = value
        text = "score1\tscore2\n1.0\t2.0\n" + "\t".join(row) + "\n"
        assert _run_table(tmp_path, command, text) == 2
        assert f"error[parse]: line 3, column {column}:" \
            in capsys.readouterr().err


    @pytest.mark.parametrize("command",
                             ["fit", "curve", "lrt", "select", "compare"])
    @pytest.mark.parametrize("quoted", [False, True],
                             ids=["plain-header", "quoted-header"])
    def test_long_field_is_cut_in_the_message(self, command, quoted,
                                              tmp_path, capsys):
        # a ParseError keeps the first 200 characters of its reason, so a
        # 200,000-digit field in the second column does not flood stderr
        names = {"select": ("score1", "posterior"),
                 "compare": ("p1", "p2")}.get(command, ("score1", "score2"))
        first = f'"{names[0]}"' if quoted else names[0]
        text = (f"{first}\t{names[1]}\n0.5\t0.5\n0.25\t"
                + "4" * 200_000 + "\n")
        assert _run_table(tmp_path, command, text) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[parse]: line 3, column 2: ")
        assert len(err.encode()) < 1024


class TestWalkedInputs:
    """Inputs that numpy's tokenizer rejects go to the per-field walker,
    which exits 2 naming the line and column."""

    def _pair(self, tmp_path, text):
        rep1 = tmp_path / "r1.narrowPeak"
        rep1.write_text(text)
        rep2 = _peak_file(tmp_path, "r2.narrowPeak", [(10, 50, 5.0, 20)])
        return run(["pair", "--rep1", str(rep1), "--rep2", str(rep2),
                    "--output", str(tmp_path / "p.tsv")])

    def _valid(self, k):
        return NARROW.format(start=100 * k, end=100 * k + 40, i=k, sig=1.0,
                             summit=20)

    def test_start_of_two_to_the_63(self, tmp_path, capsys):
        text = self._valid(0) + NARROW.format(
            start=2**63, end=2**63 + 40, i=1, sig=1.0, summit=20)
        assert self._pair(tmp_path, text) == 2
        assert capsys.readouterr().err == (
            "error[parse]: line 2, column 2: Python int too large to convert "
            "to C long\n")

    def test_nine_field_line_after_valid_lines(self, tmp_path, capsys):
        short = self._valid(2).rsplit("\t", 1)[0] + "\n"
        assert self._pair(tmp_path, self._valid(0) + self._valid(1)
                          + short) == 2
        assert capsys.readouterr().err == (
            "error[parse]: line 3, column 10: expected 10 columns, got 9\n")

    def test_unbalanced_quote_in_a_name(self, tmp_path, capsys):
        # the '"' must not swallow the lines after it: the fault two lines
        # below is found on its own line
        quoted = self._valid(0).replace("\tp0\t", '\tp"0\t')
        bad = self._valid(2).replace("\t1.0\t2.0", "\thigh\t2.0")
        assert self._pair(tmp_path, quoted + self._valid(1) + bad) == 2
        assert capsys.readouterr().err == (
            "error[parse]: line 3, column 7: could not convert string to "
            "float: 'high'\n")

    def test_unbalanced_quote_in_a_name_pairs(self, tmp_path, capsys):
        quoted = self._valid(0).replace("\tp0\t", '\tp"0\t')
        assert self._pair(tmp_path, quoted + self._valid(1)) == 0
        assert "matched 1 peak pairs (unmatched: 1 in rep1, 0 in rep2)" \
            in capsys.readouterr().err

    def test_r_quoted_header(self, tmp_path, capsys):
        quoted = tmp_path / "quoted.tsv"
        quoted.write_text('"score1"\t"score2"\n1.5\t2.5\n3.0\tinf\n')
        assert run(["curve", "--input", str(quoted),
                    "--output", str(tmp_path / "c.csv")]) == 2
        assert capsys.readouterr().err == (
            "error[parse]: line 3, column 2: 'inf' is not finite\n")

    def test_r_quoted_header_reads_as_plain(self, tmp_path):
        plain = _pair_table(tmp_path)
        quoted = tmp_path / "quoted.tsv"
        quoted.write_text('"score1"\t"score2"\n'
                          + plain.read_text().split("\n", 1)[1])
        # R on Windows ends its lines with CRLF
        crlf = tmp_path / "crlf.tsv"
        crlf.write_bytes(quoted.read_bytes().replace(b"\n", b"\r\n"))
        for path, prefix in ((plain, "a"), (quoted, "b"), (crlf, "c")):
            assert run(["fit", "--input", str(path), "--inits", "2",
                        "--output-prefix", str(tmp_path / prefix)]) == 0
        for prefix in "bc":
            assert (tmp_path / "a.tsv").read_bytes() == \
                (tmp_path / f"{prefix}.tsv").read_bytes()

    def test_stray_quotes_in_a_name_keep_every_row(self, tmp_path, capsys):
        # '"p3' opens a quote that 'p40"' closes: a csv reader takes rows 3
        # to 40 as one field, but a tab split keeps all 60 rows
        rng = np.random.default_rng(4)
        rows = [[f"p{k}", repr(a), repr(a + 0.5 * b)]
                for k, (a, b) in enumerate(rng.normal(size=(60, 2)).tolist(),
                                           start=1)]
        rows[2][0], rows[39][0] = '"p3', 'p40"'
        path = tmp_path / "names.tsv"
        path.write_text("name\tscore1\tscore2\n"
                        + "".join("\t".join(row) + "\n" for row in rows))
        assert run(["fit", "--input", str(path), "--inits", "2",
                    "--output-prefix", str(tmp_path / "fit")]) == 0
        assert "warning" not in capsys.readouterr().err
        out = (tmp_path / "fit.tsv").read_text().splitlines()
        assert out[0] == "name\tscore1\tscore2\tposterior"
        assert [line.split("\t")[:3] for line in out[1:]] == rows
        assert all(0.0 <= float(line.split("\t")[3]) <= 1.0
                   for line in out[1:])

    def test_quoted_number_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "q.tsv"
        path.write_text('"score1"\t"score2"\n1.5\t2.5\n3.0\t"1.5"\n')
        assert run(["curve", "--input", str(path),
                    "--output", str(tmp_path / "c.csv")]) == 2
        assert capsys.readouterr().err == (
            "error[parse]: line 3, column 2: could not convert string to "
            "float: '\"1.5\"'\n")

    def test_comment_line_inside_a_fit_table(self, tmp_path, capsys):
        path = tmp_path / "f.tsv"
        path.write_text("score1\tscore2\tposterior\n1\t2\t0.9\n# note\n"
                        "3\t4\t0.8\n5\t6\t1.5\n")
        assert run(["select", "--input", str(path),
                    "--output", str(tmp_path / "s.tsv")]) == 2
        assert capsys.readouterr().err == (
            "error[parse]: line 5, column 3: '1.5' is not a probability in "
            "[0, 1]\n")

    def test_comment_line_inside_a_fit_table_is_skipped(self, tmp_path,
                                                         capsys):
        path = tmp_path / "f.tsv"
        path.write_text("score1\tscore2\tposterior\n1\t2\t0.99\n# note\n"
                        "\n3\t4\t0.5\n")
        out = tmp_path / "s.tsv"
        assert run(["select", "--input", str(path), "--idr-threshold", "0.1",
                    "--output", str(out)]) == 0
        assert out.read_text().splitlines()[1:] == [
            "1\t2\t0.99\t0.010000000000000009\t0.010000000000000009"]
        assert "selected 1 of 2 signals" in capsys.readouterr().err


class TestNotUtf8:
    """Input that is not UTF-8 exits 2 naming the file, line and column."""

    def test_table(self, tmp_path, capsys):
        path = tmp_path / "t.tsv"
        path.write_bytes(b"score1\tscore2\n1.0\t2.0\n3.0\t\xff4.0\n")
        assert run(["curve", "--input", str(path),
                    "--output", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error[parse]: line 3, column 2: {path} is not UTF-8 text "
            "(byte 0xff)\n")

    @pytest.mark.parametrize("suffix", ["", ".gz"])
    def test_peak_file(self, suffix, tmp_path, capsys):
        good = _peak_file(tmp_path, "good.narrowPeak", [(10, 20, 5.0, 4)])
        text = good.read_bytes() + b"chr1\t30\t40\tp\xe91\t100\t.\t5.0\t2.0" \
            b"\t1.0\t4\n"
        bad = tmp_path / f"bad.narrowPeak{suffix}"
        bad.write_bytes(gzip.compress(text) if suffix else text)
        assert run(["pair", "--rep1", str(good), "--rep2", str(bad),
                    "--output", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error[parse]: line 2, column 4: {bad} is not UTF-8 text "
            "(byte 0xe9)\n")

    def test_reported_before_an_earlier_short_line(self, tmp_path, capsys):
        # the whole file is decoded before any line is read, so where the
        # decoder's buffer ends does not decide which fault is reported
        text = "".join(NARROW.format(start=100 * k, end=100 * k + 40, i=k,
                                     sig=1.0, summit=20) for k in range(3000))
        lines = text.splitlines(keepends=True)
        lines[1] = "chr1\t5\t9\n"
        bad = tmp_path / "bad.narrowPeak"
        bad.write_bytes("".join(lines).encode().replace(b"p2999", b"p\xff"))
        assert run(["pair", "--rep1", str(bad), "--rep2", str(bad),
                    "--output", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error[parse]: line 3000, column 4: {bad} is not UTF-8 text "
            "(byte 0xff)\n")

    @pytest.mark.parametrize("ends, line, column", [
        (b"\r\n", 3, 2), (b"\r", 1, 4), (b"\r\r\n", 3, 2)])
    def test_lines_count_newlines_alone(self, ends, line, column, tmp_path,
                                        capsys):
        # open() ends a line at a lone \r too, but the line of a bad byte
        # counts \n alone, as its field counts tabs
        path = tmp_path / "t.tsv"
        path.write_bytes(ends.join([b"score1\tscore2", b"1.0\t2.0",
                                    b"3.0\t\xff4.0", b""]))
        assert run(["curve", "--input", str(path),
                    "--output", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error[parse]: line {line}, column {column}: {path} is not "
            "UTF-8 text (byte 0xff)\n")

    def test_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_bytes(b'{"label": "x",\n  "components": [\xc3]}\n')
        assert run(["simulate", "--scenario", str(path), "--n", "300",
                    "--output-prefix", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error[parse]: line 2, column 18: {path} is not UTF-8 text "
            "(byte 0xc3)\n")


@pytest.mark.parametrize("suffix", ["", ".gz"])
def test_line_ends_read_as_open_reads_them(suffix, tmp_path):
    data = "a\tb\r\nc\rd\r\r\né\n\r\rf\r".encode()
    path = tmp_path / f"ends.txt{suffix}"
    path.write_bytes(gzip.compress(data) if suffix else data)
    opener = gzip.open if suffix else open
    with opener(path, "rt", encoding="utf-8") as handle:
        assert idrkit.errors.utf8_text(path, opener) == handle.read()


@pytest.mark.parametrize("command", ["fit", "curve"])
def test_tie_warning_is_one_plain_line(command, tmp_path, capsys):
    # every score1 is tied with one other; the message alone reaches stderr,
    # with no source path or line number that would differ between checkouts
    path = tmp_path / "tied.tsv"
    path.write_text("score1\tscore2\n" + "".join(
        f"{i // 2}\t{i + (i % 3) / 4}\n" for i in range(200)))
    out = "--output-prefix" if command == "fit" else "--output"
    assert run([command, "--input", str(path), out, str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == (
        "warning: 200 of 200 signals share a tied score on at least one "
        "replicate; tied values were assigned their maximum rank\n")


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
            st.characters(blacklist_characters="\t\n\r#",
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


# fields on which numpy's tokenizer and Python's float() could part ways
_EDGE_FIELDS = ["+5", " 5", "5 ", "-0", "1_000", "٣", "Ǿ5", "\x1c5", "1e400",
                "-1e400", "1e-400", "nan", "-inf", "0x10", "5\r", "", " ",
                "1.5e", "2", "0.5", "1"]


def _decorated(draw, value, wild):
    forms = [repr(value), f"+{value!r}", f" {value!r}", f"{value!r} "]
    if wild:
        forms += [f"{value!r}\r", f'"{value!r}"',
                  repr(value).replace("1", "٣"),
                  repr(value).replace("0", "0_0"), *_EDGE_FIELDS]
    return draw(st.sampled_from(forms))


@st.composite
def _score_tables(draw):
    """A score table for one of the float field parsers: header or not,
    extra columns, comment and blank lines among the rows, and in a wild
    table also fields that only Python reads or that nothing reads."""
    parse = draw(st.sampled_from(["_finite", "_probability", "_p_value"]))
    wild = draw(st.booleans())
    values = st.floats(1e-300, 1.0) if parse != "_finite" else st.floats(
        allow_nan=False, allow_infinity=False)
    n_cols = draw(st.integers(2, 4))
    lines = draw(st.lists(st.sampled_from(["# c", ""]), max_size=2))
    if draw(st.booleans()):
        lines.append("\t".join(["score1", "score2", "x", "y"][:n_cols]))
    for _ in range(draw(st.integers(1, 8))):
        lines += draw(st.lists(st.sampled_from(["# c", "", "#"]),
                               max_size=2))
        lines.append("\t".join(_decorated(draw, draw(values), wild)
                               for _ in range(n_cols)))
    return parse, "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def _table_outcome(path, parse):
    """The columns 1 and 2 of a score table as `parse` reads them, as
    bytes, or the error that reading raises."""
    try:
        table = idrkit.cli._Table(path, lambda first: "score1" in first)
        return [c.tobytes() for c in table.columns((0, parse), (1, parse))]
    except (idrkit.errors.ParseError, idrkit.errors.EmptyFile) as exc:
        return type(exc), str(exc)


@given(_score_tables())
@settings(max_examples=300, deadline=None)
def test_tokenizer_and_walker_read_score_tables_alike(case):
    name, text = case
    parse = getattr(idrkit.cli, name)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tsv"
        path.write_bytes(text.encode())
        got = _table_outcome(path, parse)
        with mock.patch("idrkit.errors.tokenize_columns",
                        lambda rows, columns: None):
            walked = _table_outcome(path, parse)
    assert got == walked


def test_well_formed_table_never_reaches_the_walker(tmp_path):
    path = _pair_table(tmp_path)
    with mock.patch("idrkit.errors.parse_column",
                    side_effect=AssertionError("walked")):
        table, _, _ = idrkit.cli._read_ranked(path)
    assert len(table.records) == 200


@pytest.mark.parametrize("comment", ["# réplica 1", "# \x1c\x1d\x1e\x1f"])
def test_a_comment_line_keeps_the_tokenizer(tmp_path, comment):
    # a skipped '#' line never reaches the tokenizer, so a non-ASCII
    # character or a separator it strips there sends no row to the walker
    plain = _pair_table(tmp_path)
    marked = tmp_path / "marked.tsv"
    marked.write_text(f"{comment}\n{plain.read_text()}", encoding="utf-8")
    columns = [(0, idrkit.cli._finite), (1, idrkit.cli._finite)]
    with mock.patch("idrkit.errors.parse_column",
                    side_effect=AssertionError("walked")):
        got = [[c.tobytes() for c in idrkit.cli._Table(path).columns(*columns)]
               for path in (plain, marked)]
    assert got[0] == got[1]


def test_a_non_ascii_header_keeps_the_tokenizer(tmp_path):
    # R's write.table keeps a header name such as réplica as written; the
    # header is no data row, so it sends no row to the walker
    plain = _pair_table(tmp_path)
    named = tmp_path / "named.tsv"
    named.write_text(plain.read_text().replace(
        "score1\tscore2\n", "score1\tscore2\tréplica\n", 1),
        encoding="utf-8")
    columns = [(0, idrkit.cli._finite), (1, idrkit.cli._finite)]
    with mock.patch("idrkit.errors.tokenize_columns",
                    wraps=idrkit.errors.tokenize_columns) as tokenize, \
            mock.patch("idrkit.errors.parse_column",
                       side_effect=AssertionError("walked")):
        got = [[c.tobytes() for c in idrkit.cli._Table(path).columns(*columns)]
               for path in (plain, named)]
    assert tokenize.call_count == 2
    assert got[0] == got[1]


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
        manifest = _strict_json(tmp_path / "paired.tsv.manifest.json")
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

    def test_summit_below_minus_one_is_parse_error(self, tmp_path, capsys):
        rep1 = _peak_file(tmp_path, "r1.narrowPeak",
                          [(0, 40, 3.0, 20), (100, 140, 2.0, -5)])
        rep2 = _peak_file(tmp_path, "r2.narrowPeak", [(15, 55, 2.0, -1)])
        out = tmp_path / "p.tsv"
        assert self._run_pair(rep1, rep2, out) == 2
        assert "error[parse]: line 2, column 10" in capsys.readouterr().err
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
        params = _strict_json(tmp_path / "a.json")
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
        manifest = _strict_json(tmp_path / "f.manifest.json")
        assert manifest["rng_seed"] == 5
        assert len(manifest["input_digests"][str(pairs)]) == 64

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        pairs = _pair_table(tmp_path)
        monkeypatch.setenv("IDRKIT_SEED", "11")
        assert run(["fit", "--input", str(pairs), "--inits", "2",
                    "--output-prefix", str(tmp_path / "e")]) == 0
        manifest = _strict_json(tmp_path / "e.manifest.json")
        assert manifest["rng_seed"] == 11

    def test_p_value_table_is_ranked_on_minus_p(self, tmp_path):
        # a p1/p2 table reads as compare reads it: smaller is better, so it
        # fits, selects and curves as its negated twin under score1/score2
        data = idrkit.simulate.simulate_dataset(
            idrkit.simulate.scenario_preset("S1", n=600, seed=0))
        rows = list(zip(range(600), data.pvalues1.tolist(),
                        data.pvalues2.tolist()))
        outputs = {}
        for kind, sign, names in (("p", 1.0, "p1\tp2"),
                                  ("s", -1.0, "score1\tscore2")):
            table = tmp_path / f"{kind}.tsv"
            table.write_text(f"id\t{names}\n" + "".join(
                f"{i}\t{sign * a!r}\t{sign * b!r}\n" for i, a, b in rows))
            prefix = str(tmp_path / kind)
            assert run(["fit", "--input", str(table), "--inits", "3",
                        "--output-prefix", prefix]) == 0
            assert run(["select", "--input", f"{prefix}.tsv",
                        "--output", f"{prefix}.sel.tsv"]) == 0
            assert run(["curve", "--input", str(table),
                        "--output", f"{prefix}.csv"]) == 0
            selected = Path(f"{prefix}.sel.tsv").read_text().splitlines()
            outputs[kind] = (_strict_json(f"{prefix}.json"),
                             [row.split("\t")[0] for row in selected[1:]],
                             Path(f"{prefix}.csv").read_bytes())
        assert outputs["p"] == outputs["s"]
        assert 0.5 < outputs["p"][0]["pi1"] < 0.8
        assert 0 < len(outputs["p"][1]) < 600


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

    def test_grid_above_cap_is_domain_error(self, tmp_path, capsys):
        # refused before the grid-sized spline basis is allocated
        path = tmp_path / "s.tsv"
        path.write_text("1\t2\n2\t1\n3\t3\n")
        out = tmp_path / "curve.csv"
        assert run(["curve", "--input", str(path), "--grid",
                    str(idrkit.curves.MAX_GRID_SIZE + 1),
                    "--output", str(out)]) == 2
        assert "error[domain]:" in capsys.readouterr().err
        assert not out.exists()


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
        manifest = _strict_json(tmp_path / "sim.manifest.json")
        assert manifest["flags"]["scenario"] == "S1"

    def test_tables_are_the_library_report(self, tmp_path):
        prefix = tmp_path / "sim"
        assert run(["simulate", "--scenario", "S3", "--n", "400",
                    "--reps", "2", "--inits", "3", "--seed", "5",
                    "--output-prefix", str(prefix)]) == 0
        report = idrkit.simulate.scenario_report(
            idrkit.simulate.scenario_preset("S3", n=400, seed=5), 2,
            fit_config=idrkit.mixture.FitConfig(n_inits=3, rng_seed=5))

        def rows(name):
            lines = (tmp_path / f"sim.{name}.csv").read_text().splitlines()
            return [line.split(",") for line in lines[1:]]

        def assert_rows(written, expected):
            assert len(written) == len(expected)
            for fields, row in zip(written, expected):
                assert len(fields) == len(row)
                for text, value in zip(fields, row):
                    if isinstance(value, float):
                        assert float(text) == value
                    else:
                        assert text == str(value)

        params = rows("params")
        assert_rows(params[:2], report.fit_rows)
        means = [float(np.mean(c))
                 for c in zip(*[row[1:5] for row in report.fit_rows])]
        assert [float(v) for v in params[2][1:5]] == means
        assert_rows(rows("calibration"),
                    [dataclasses.astuple(r) for r in report.calibration])
        assert_rows(rows("tradeoff"),
                    [dataclasses.astuple(r) for r in report.tradeoff])

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
        manifest = _strict_json(tmp_path / "c.manifest.json")
        assert str(scen) in manifest["input_digests"]

    def test_unknown_scenario_is_data_error(self, tmp_path, capsys):
        assert run(["simulate", "--scenario", str(tmp_path / "nope.json"),
                    "--output-prefix", str(tmp_path / "x")]) == 2
        assert "error[io]:" in capsys.readouterr().err

    _NOISE = {"pi": 0.4, "mu": 0.0, "rho": 0.0}

    @pytest.mark.parametrize("text, expected", [
        ("{not json", "error[parse]: line 1, column 2: Expecting property "
                      "name"),
        ('{"components": []}\n]', "error[parse]: line 2, column 1: Extra "
                                  "data"),
        ("[1, 2]", "error[domain]: a scenario file must hold a JSON object "
                   "with a 'components' list"),
        ('{"components": 3}', "error[domain]: a scenario file must hold"),
        (json.dumps({"components": [_NOISE, {"pi": 0.6, "mu": 2.5}]}),
         "error[domain]: scenario component 1: field 'rho' is missing"),
        (json.dumps({"components": [_NOISE, {"pi": "0.6", "mu": 2.5,
                                             "rho": 0.8}]}),
         "error[domain]: scenario component 1: field 'pi' is missing or not "
         "a number"),
        (json.dumps({"components": [_NOISE, {"pi": 0.6, "mu": True,
                                             "rho": 0.8}]}),
         "error[domain]: scenario component 1: field 'mu'"),
        (json.dumps({"components": [_NOISE, 7]}),
         "error[domain]: scenario component 1: field 'pi'"),
        (json.dumps({"components": [_NOISE, {"pi": 0.6, "mu": 2.5,
                                             "rho": 0.8, "sigma_sq": -1}]}),
         "error[domain]: scenario component 1: sigma_sq must be finite and "
         "> 0, got -1"),
        (json.dumps({"components": [_NOISE, {"pi": 1.6, "mu": 2.5,
                                             "rho": 0.8}]}),
         "error[domain]: scenario component 1: pi must lie in [0, 1]"),
        ('{"components": [{"pi": 0.4, "mu": 0.0, "rho": 0.0}, '
         '{"pi": 0.6, "mu": NaN, "rho": 0.8}]}',
         "error[domain]: scenario component 1: mu must be finite"),
    ])
    def test_malformed_scenario_file(self, text, expected, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        scen.write_text(text)
        assert run(["simulate", "--scenario", str(scen), "--n", "300",
                    "--reps", "1", "--output-prefix",
                    str(tmp_path / "sim")]) == 2
        assert capsys.readouterr().err.startswith(expected)
        assert list(tmp_path.iterdir()) == [scen]


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

    def test_one_replicate_of_the_report(self, tmp_path):
        # compare on a simulated table counts what scenario_report's
        # trade-off table counts for the same dataset and fit
        from idrkit.mixture import FitConfig
        from idrkit.simulate import (scenario_preset, scenario_report,
                                     simulate_dataset)
        scenario = scenario_preset("S1", n=500, seed=4)
        data = simulate_dataset(scenario)
        path, out = tmp_path / "pvals.tsv", tmp_path / "cmp.csv"
        path.write_text("p1\tp2\ttruth\n" + "".join(
            f"{a!r}\t{b!r}\t{int(t == 1)}\n"
            for a, b, t in zip(*data.pvalues.tolist(), data.truth)))
        assert run(["compare", "--input", str(path), "--inits", "3",
                    "--seed", "7", "--output", str(out)]) == 0
        rows = [(m, float(thr), int(incorrect), int(correct))
                for m, thr, incorrect, correct
                in (line.split(",")
                    for line in out.read_text().splitlines()[1:])]
        report = scenario_report(scenario, 1,
                                 FitConfig(n_inits=3, rng_seed=7))
        assert len(rows) == 160
        assert rows == [(r.method, r.threshold, r.incorrect, r.correct)
                        for r in report.tradeoff]

    def test_requires_p_columns(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("a\tb\n0.1\t0.2\n")
        assert run(["compare", "--input", str(bad),
                    "--output", str(tmp_path / "c.csv")]) == 2
        assert "error[parse]:" in capsys.readouterr().err

    @staticmethod
    def _with_p(path, row, column, value):
        """Set one p-value field of the table at `path` (row 1 is the first
        data row) to the text `value`."""
        lines = path.read_text().splitlines()
        fields = lines[row].split("\t")
        fields[column - 1] = value
        lines[row] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")

    def test_p_value_of_one_is_accepted(self, tmp_path, capsys):
        path = self._pvalue_table(tmp_path)
        for row, column in ((1, 1), (2, 2), (3, 1), (3, 2)):
            self._with_p(path, row, column, "1")
        out = tmp_path / "cmp.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["compare", "--input", str(path), "--inits", "2",
                        "--seed", "0", "--output", str(out)]) == 0
        assert "error[" not in capsys.readouterr().err
        methods = {line.split(",")[0]
                   for line in out.read_text().splitlines()[1:]}
        assert methods == {"idr", "rep1", "fisher", "stouffer"}

    @pytest.mark.parametrize("column", [1, 2])
    def test_p_value_of_zero_is_parse_error(self, column, tmp_path, capsys):
        path = self._pvalue_table(tmp_path)
        self._with_p(path, 4, column, "0")
        out = tmp_path / "cmp.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["compare", "--input", str(path), "--inits", "2",
                        "--seed", "0", "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error[parse]: line 5, column {column}:")
        assert not out.exists()

    def test_truth_is_read_as_an_integer(self, tmp_path):
        # the truth column is read as Python's int() reads it, under [0, 1]
        outputs = []
        for form in ("1", "+1", "01"):
            path = self._pvalue_table(tmp_path)
            text = path.read_text()
            assert "\t1\n" in text
            path.write_text(text.replace("\t1\n", f"\t{form}\n"))
            out = tmp_path / f"cmp{len(outputs)}.csv"
            assert run(["compare", "--input", str(path), "--inits", "2",
                        "--seed", "0", "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize("value, reason", [
        ("2", "'2' is not 0 or 1"),
        ("1.0", "invalid literal for int() with base 10: '1.0'"),
        ("x", "invalid literal for int() with base 10: 'x'")],
        ids=["2", "1.0", "x"])
    def test_truth_outside_zero_one_is_parse_error(self, value, reason,
                                                   tmp_path, capsys):
        path = self._pvalue_table(tmp_path)
        self._with_p(path, 4, 3, value)
        out = tmp_path / "cmp.csv"
        assert run(["compare", "--input", str(path), "--output",
                    str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error[parse]: line 5, column 3: {reason}\n"
        assert not out.exists()

    def test_one_conversion_per_run(self, tmp_path):
        path = tmp_path / "p.tsv"
        rng = np.random.default_rng(0)
        p = rng.uniform(0.001, 1.0, size=(100, 2))
        path.write_text("p1\tp2\ttruth\n" + "".join(
            f"{a!r}\t{b!r}\t{k % 2}\n" for k, (a, b) in enumerate(p.tolist())))
        with mock.patch("idrkit.cli.convert_columns",
                        wraps=idrkit.errors.convert_columns) as convert:
            assert run(["compare", "--input", str(path), "--inits", "1",
                        "--output", str(tmp_path / "c.csv")]) == 0
        assert convert.call_count == 1

    def test_missing_header_before_a_bad_field(self, tmp_path, capsys):
        # every header lookup precedes the one conversion, so a table
        # without p2 reports that, not its bad p1 field
        assert _run_table(tmp_path, "compare",
                          "p1\tx\nbad\t0.5\n0.5\t0.5\n") == 2
        assert capsys.readouterr().err == \
            "error[parse]: line 1, column 3: header has no p2 column\n"


class TestLrt:
    def test_negative_statistic_warns_and_reports_theta(self, tmp_path,
                                                        capsys):
        # criterion 6's first null set (rho = 0.6, n = 500), whose fitted
        # alternative scores below the null it contains
        rng = np.random.default_rng(100)
        z = rng.multivariate_normal([0.0, 0.0], [[1.0, 0.6], [0.6, 1.0]],
                                    size=500)
        pairs = tmp_path / "null.tsv"
        pairs.write_text("score1\tscore2\n" + "".join(
            f"{a!r}\t{b!r}\n" for a, b in z.tolist()))
        out = tmp_path / "lrt.json"
        assert run(["lrt", "--input", str(pairs), "--seed", "0",
                    "--bootstrap", "1", "--output", str(out)]) == 0
        res = _strict_json(out)
        assert res["two_log_lambda"] == 0.0
        assert res["loglik_alt"] < res["loglik_null"]
        assert capsys.readouterr().err.startswith(
            "warning: the fitted two-component model scores "
            f"{res['loglik_null'] - res['loglik_alt']:.6g} below the "
            "one-component null it contains, so its fit stopped short of "
            "the maximum; 2 log lambda was taken as 0\n")
        assert run(["fit", "--input", str(pairs), "--seed", "0",
                    "--output-prefix", str(tmp_path / "fit")]) == 0
        fitted = _strict_json(tmp_path / "fit.json")
        assert res["theta_alt"] == {name: fitted[name] for name in
                                    ("pi1", "mu1", "sigma1_sq", "rho1")}

    def test_replicate_starved_on_every_draw_is_null(self, tmp_path,
                                                     monkeypatch):
        # replicate 1 fits with rng_seed --seed + 2 on each of its four
        # draws; its infinite statistic is written as null, not Infinity
        real_fit = idrkit.lrt.fit

        def starving_fit(ranked, config):
            if config.rng_seed == 2:
                raise idrkit.errors.DegenerateComponent("starved")
            return real_fit(ranked, config)
        monkeypatch.setattr(idrkit.lrt, "fit", starving_fit)
        out = tmp_path / "lrt.json"
        assert run(["lrt", "--input", str(_pair_table(tmp_path, n=150)),
                    "--bootstrap", "3", "--inits", "2", "--seed", "0",
                    "--output", str(out)]) == 0
        res = _strict_json(out)
        assert res["bootstrap_stats"][1] is None
        assert all(isinstance(x, float) for x in res["bootstrap_stats"][::2])
        assert res["n_bootstrap"] == 3

    def test_lrt_json_fields(self, tmp_path):
        pairs = _pair_table(tmp_path, n=150, seed=3)
        out = tmp_path / "lrt.json"
        assert run(["lrt", "--input", str(pairs), "--bootstrap", "3",
                    "--inits", "2", "--seed", "0",
                    "--output", str(out)]) == 0
        res = _strict_json(out)
        assert set(res) == {"rho_null", "loglik_null", "loglik_alt",
                            "theta_alt", "two_log_lambda", "p_value",
                            "n_bootstrap", "bootstrap_stats"}
        assert res["n_bootstrap"] == 3
        assert len(res["bootstrap_stats"]) == 3
        assert 0.0 < res["p_value"] <= 1.0


class TestReplicateSwap:
    """A table with its two score columns swapped gives the same fit, IDR,
    curve and LRT: byte-identical .json and .csv outputs, and fit and
    select tables equal once their score columns are swapped back."""

    @pytest.mark.parametrize("decimals", [None, 1])
    def test_outputs_match(self, tmp_path, decimals):
        rng = np.random.default_rng(5)
        k = rng.random(300) < 0.6
        z = rng.normal(size=(300, 2))
        z[k] = 2.5 + rng.multivariate_normal([0.0, 0.0],
                                             [[1.0, 0.8], [0.8, 1.0]],
                                             size=300)[k]
        if decimals is not None:
            z = np.round(z, decimals)  # ties within each replicate
        outputs = []
        for side, (a, b) in (("ab", z.T), ("ba", z.T[::-1])):
            table = tmp_path / f"{side}.tsv"
            table.write_text("id\tscore1\tscore2\n" + "".join(
                f"r{i}\t{x!r}\t{y!r}\n"
                for i, (x, y) in enumerate(zip(a.tolist(), b.tolist()))))
            prefix = str(tmp_path / side)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert run(["fit", "--input", str(table), "--inits", "3",
                            "--output-prefix", f"{prefix}.fit"]) == 0
                assert run(["select", "--input", f"{prefix}.fit.tsv",
                            "--output", f"{prefix}.sel.tsv"]) == 0
                assert run(["curve", "--input", str(table),
                            "--output", f"{prefix}.csv"]) == 0
                assert run(["lrt", "--input", str(table), "--inits", "2",
                            "--bootstrap", "2",
                            "--output", f"{prefix}.lrt.json"]) == 0
            tables = []
            for name in ("fit.tsv", "sel.tsv"):
                rows = [line.split("\t") for line in
                        Path(f"{prefix}.{name}").read_text().splitlines()]
                if side == "ba":
                    for row in rows[1:]:
                        row[1], row[2] = row[2], row[1]
                tables.append(rows)
            outputs.append((*(Path(f"{prefix}{ext}").read_bytes() for ext in
                              (".fit.json", ".csv", ".lrt.json")), tables))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][3][1]) > 1


class TestOutputText:
    """Every table is written one way: a float as {:.17g}, which reads back
    to the same float, and any other value by str()."""

    @staticmethod
    def _is_17g(text):
        return text == "{:.17g}".format(float(text))

    def test_printf_writes_as_str_format(self, tmp_path):
        # the table writer's %.17g and %s give the bytes of {:.17g} and {}
        floats = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                  1.7976931348623157e308, 0.1, 1.0, -2.5, 1e16, 123456789.0]
        n = len(floats)
        mixed = ["a", 7, -3, True, False, np.float64(0.1), 0.30000000000000004,
                 -0.0, np.float64(-np.inf), "x y", "%s", "{}", 2**63]
        columns = (np.array(floats), np.arange(n) - 5, np.arange(n) % 2 == 0,
                   np.array([f"chr{k}" for k in range(n)]), mixed)
        path = tmp_path / "t.tsv"
        idrkit.cli._write_table(path, ("f", "i", "b", "s", "m"), columns)
        rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                     for c in columns))
        want = "f\ti\tb\ts\tm\n" + "".join("\t".join(
            ("{:.17g}" if isinstance(v, float) else "{}").format(v)
            for v in row) + "\n" for row in rows)
        assert path.read_bytes() == want.encode()

    def test_pair_rows(self, tmp_path):
        rep1 = _peak_file(tmp_path, "r1.narrowPeak", [(0, 40, 0.1, 20)])
        rep2 = _peak_file(tmp_path, "r2.narrowPeak", [(10, 50, 5.0, 20)])
        out = tmp_path / "paired.tsv"
        assert run(["pair", "--rep1", str(rep1), "--rep2", str(rep2),
                    "--output", str(out)]) == 0
        assert out.read_text().splitlines()[1] == \
            "chr1\t0\t40\t10\t50\t0.10000000000000001\t5"

    def test_curve_float_columns(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["curve", "--input", str(_pair_table(tmp_path)),
                    "--grid", "10", "--df", "3", "--output", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert rows[0] == ["t", "psi", "psi_prime"]
        assert [row[0] for row in rows[1:4]] == [
            "0.10000000000000001", "0.20000000000000001",
            "0.29999999999999999"]
        assert rows[-1][0] == "1"
        assert all(self._is_17g(text) for row in rows[1:] for text in row)

    def test_simulate_params_mix_values(self, tmp_path):
        # ints, floats, bools, and the mean and sd rows, whose last two
        # fields are empty strings
        assert run(["simulate", "--scenario", "S1", "--n", "300",
                    "--reps", "2", "--inits", "2", "--seed", "1",
                    "--output-prefix", str(tmp_path / "sim")]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "sim.params.csv").read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["0", "1", "mean", "sd"]
        assert all(row[6] in ("True", "False") for row in rows[:2])
        assert [row[5:] for row in rows[2:]] == [["", ""], ["", ""]]
        assert all(self._is_17g(text) for row in rows[:2] for text in row[1:6])
        assert all(self._is_17g(text) for row in rows[2:] for text in row[1:5])

    def test_headerless_fit_rewrites_its_scores(self, tmp_path):
        # the scores of a headerless table are written back as floats, and
        # a table with a header passes its rows through as they were read
        scores = [line.split("\t") for line in
                  _pair_table(tmp_path).read_text().splitlines()[1:]]
        forms = ["{:.3g}", "{:.2e}", "{:+.4f}", "{!r}"]
        rows = [[forms[k % 4].format(float(a)), forms[(k + 1) % 4].format(
            float(b))] for k, (a, b) in enumerate(scores)]
        rows[0] = ["0.1", "1"]
        path = tmp_path / "plain.tsv"
        path.write_text("# no header\n"
                        + "".join("\t".join(row) + "\n" for row in rows))
        assert run(["fit", "--input", str(path), "--inits", "2",
                    "--output-prefix", str(tmp_path / "fit")]) == 0
        lines = (tmp_path / "fit.tsv").read_text().splitlines()
        assert lines[0] == "score1\tscore2\tposterior"
        assert lines[1].startswith("0.10000000000000001\t1\t")
        assert [line.split("\t")[:2] for line in lines[1:]] == [
            ["{:.17g}".format(float(text)) for text in row] for row in rows]
        assert all(self._is_17g(line.split("\t")[2]) for line in lines[1:])

