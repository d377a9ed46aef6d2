"""Peak parsing, width truncation, and one-to-one overlap pairing."""

import gzip
import itertools
import math
import tempfile
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from idrkit.errors import (DomainError, EmptyFile, ParseError,
                           convert_columns, parse_column, tokenizable,
                           tokenize_columns)
from idrkit.peaks import (NARROWPEAK_SCORE_COLUMNS, PeakTable,
                          overlap_length, pair_peaks, parse_peak_file,
                          truncate_to_width)

NARROW_LINE = "chr1\t{start}\t{end}\tpeak{i}\t{score}\t.\t{sig}\t{p}\t{q}\t{summit}"


class Row(NamedTuple):
    """One peak, as the reference solvers and `overlap_length` read it."""

    chrom: str
    start: int
    end: int
    score: float = 1.0
    summit: int = -1


def _table(rows) -> PeakTable:
    """The PeakTable holding `rows` in order."""
    return PeakTable(*(list(col) for col in zip(*rows)))


def _narrow_file(tmp_path, rows, name="peaks.narrowPeak", header=None):
    lines = [] if header is None else [header]
    for i, (start, end, sig, summit) in enumerate(rows):
        lines.append(NARROW_LINE.format(start=start, end=end, i=i, score=100,
                                        sig=sig, p=2.5, q=1.5, summit=summit))
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestParsing:
    def test_narrowpeak_basic(self, tmp_path):
        path = _narrow_file(tmp_path, [(100, 200, 7.5, 30),
                                       (300, 350, 3.25, -1)])
        peaks = parse_peak_file(path)
        assert len(peaks) == 2
        assert peaks.chrom.tolist() == ["chr1", "chr1"]
        assert peaks.start[0] == 100 and peaks.end[0] == 200
        assert peaks.score[0] == pytest.approx(7.5)
        assert peaks.summit.tolist() == [30, -1]

    def test_score_column_choices(self, tmp_path):
        path = _narrow_file(tmp_path, [(0, 50, 9.0, -1)])
        assert parse_peak_file(path, score_column="score").score[0] == 100.0
        assert parse_peak_file(path, score_column="pValue").score[0] == 2.5
        assert parse_peak_file(path, score_column="qValue").score[0] == 1.5
        with pytest.raises(DomainError):
            parse_peak_file(path, score_column="nope")

    def test_bed_score_format(self, tmp_path):
        path = tmp_path / "peaks.bed"
        path.write_text("chr2\t10\t60\t4.5\nchr2\t100\t140\t2.0\n")
        peaks = parse_peak_file(path, format="bed-score")
        assert len(peaks) == 2
        assert peaks.score[0] == pytest.approx(4.5)
        assert peaks.summit.tolist() == [-1, -1]

    def test_gzip_transparency(self, tmp_path):
        text = NARROW_LINE.format(start=5, end=45, i=0, score=1, sig=2.0,
                                  p=1.0, q=0.5, summit=10) + "\n"
        path = tmp_path / "peaks.narrowPeak.gz"
        with gzip.open(path, "wt") as fh:
            fh.write(text)
        peaks = parse_peak_file(path)
        assert peaks.start.tolist() == [5]

    def test_skips_comments_and_track_lines(self, tmp_path):
        path = _narrow_file(tmp_path, [(10, 20, 1.0, -1)],
                            header="track name=rep1")
        assert len(parse_peak_file(path)) == 1

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.narrowPeak"
        good = NARROW_LINE.format(start=1, end=9, i=0, score=1, sig=1.0,
                                  p=1.0, q=1.0, summit=-1)
        path.write_text(good + "\nchr1\tnope\t20\tx\t0\t.\t1\t1\t1\t-1\n")
        with pytest.raises(ParseError) as err:
            parse_peak_file(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
    def test_rejects_non_finite_score(self, tmp_path, bad):
        path = _narrow_file(tmp_path, [(0, 40, 2.0, -1), (50, 90, bad, -1)])
        with pytest.raises(ParseError) as err:
            parse_peak_file(path)
        assert (err.value.line, err.value.column) == (2, 7)

    @pytest.mark.parametrize("summit", [-2, -5])
    def test_rejects_summit_below_minus_one(self, tmp_path, summit):
        # narrowPeak reserves -1 alone for "no summit"
        path = _narrow_file(tmp_path, [(0, 40, 2.0, -1), (50, 90, 1.0, summit)])
        with pytest.raises(ParseError) as err:
            parse_peak_file(path)
        assert (err.value.line, err.value.column) == (2, 10)

    def test_rejects_summit_outside_peak(self, tmp_path):
        path = _narrow_file(tmp_path, [(50, 90, 1.0, 40)])
        with pytest.raises(ParseError) as err:
            parse_peak_file(path)
        assert (err.value.line, err.value.column) == (1, 10)

    def test_rejects_end_beyond_int64(self, tmp_path):
        path = _narrow_file(tmp_path, [(0, 2**63 - 1, 1.0, -1),
                                       (0, 2**63, 1.0, -1)])
        with pytest.raises(ParseError) as err:
            parse_peak_file(path)
        assert (err.value.line, err.value.column) == (2, 3)

    def test_rejects_inverted_interval(self, tmp_path):
        path = _narrow_file(tmp_path, [(50, 50, 1.0, -1)])
        with pytest.raises(ParseError):
            parse_peak_file(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.narrowPeak"
        path.write_text("# nothing here\n")
        with pytest.raises(EmptyFile):
            parse_peak_file(path)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(DomainError):
            parse_peak_file(tmp_path / "x", format="gff")


def _parse_reference(path, format: str = "narrowPeak",
                     score_column: str = "signalValue") -> PeakTable:
    """The per-line parser that `parse_peak_file` replaced, kept verbatim:
    each field is converted and checked as its line is read, so the first
    faulty line is reported, at the column of its first fault."""
    if format == "narrowPeak":
        n_cols = 10
        score_idx = NARROWPEAK_SCORE_COLUMNS.get(score_column)
        if score_idx is None:
            raise DomainError(f"unknown score column {score_column!r}")
    elif format == "bed-score":
        n_cols = 4
        score_idx = 3
    else:
        raise DomainError(f"unknown peak format {format!r}")

    chroms, starts, ends, scores, summits = [], [], [], [], []
    opener = gzip.open if Path(path).suffix == ".gz" else open
    with opener(path, "rt") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith(("#", "track", "browser")):
                continue
            fields = line.split("\t")
            if len(fields) < n_cols:
                raise ParseError(lineno, len(fields) + 1,
                                 f"expected {n_cols} columns, got {len(fields)}")
            try:
                start = int(fields[1])
                end = int(fields[2])
            except ValueError as exc:
                raise ParseError(lineno, 2, f"bad coordinates: {exc}") from None
            if start < 0:
                raise ParseError(lineno, 2, f"negative start {start}")
            if start >= end:
                raise ParseError(lineno, 3, f"start {start} >= end {end}")
            if end >= 2**63:  # coordinates are held as int64
                raise ParseError(lineno, 3, f"end {end} exceeds 2^63 - 1")
            try:
                score = float(fields[score_idx])
            except ValueError:
                raise ParseError(lineno, score_idx + 1,
                                 f"bad score {fields[score_idx]!r}") from None
            if not math.isfinite(score):
                raise ParseError(lineno, score_idx + 1,
                                 f"non-finite score {fields[score_idx]!r}")
            summit = -1
            if format == "narrowPeak":
                try:
                    summit = int(fields[9])
                except ValueError:
                    raise ParseError(lineno, 10,
                                     f"bad summit {fields[9]!r}") from None
                if summit < -1:  # -1 alone means "no summit"
                    raise ParseError(lineno, 10, f"summit {summit} below -1")
                if summit >= end - start:
                    raise ParseError(lineno, 10,
                                     f"summit {summit} outside peak")
            chroms.append(fields[0])
            starts.append(start)
            ends.append(end)
            scores.append(score)
            summits.append(summit)
    if not chroms:
        raise EmptyFile(f"no peaks parsed from {path}")
    return PeakTable(chroms, starts, ends, scores, summits)


_COMMENTS = ("# a comment", "track name=rep1", "browser position chr1:1-9",
             "")


def _peak_fields(rng, k, format):
    """The fields of one well-formed peak line of `format`."""
    start = int(rng.integers(0, 10**6))
    width = int(rng.integers(1, 1000))
    value = float(rng.standard_normal()) * 10.0 ** int(rng.integers(-3, 4))
    texts = (repr(value), f"{value:.3g}", str(int(value)))
    fields = [f"chr{rng.integers(1, 4)}", str(start), str(start + width)]
    if format == "bed-score":
        return fields + [str(rng.choice(texts))]
    summit = -1 if rng.random() < 0.3 else int(rng.integers(0, width))
    # a '"' in the name must not affect the lines that follow
    name = f'peak"{k}' if rng.random() < 0.1 else f"peak{k}"
    return fields + [name, str(int(rng.integers(0, 1001))), ".",
                     *(str(rng.choice(texts)) for _ in range(3)), str(summit)]


def _write_peaks(path, rows, rng):
    """Write `rows` (lists of fields) with comment, track, browser and blank
    lines among them, gzipped when `path` ends in .gz; returns the file line
    of each row."""
    lines, at = [], []
    for row in rows:
        while rng.random() < 0.2:
            lines.append(str(rng.choice(_COMMENTS)))
        lines.append("\t".join(row))
        at.append(len(lines))
    text = "\n".join(lines) + "\n"
    if path.suffix == ".gz":
        path.write_bytes(gzip.compress(text.encode()))
    else:
        path.write_text(text)
    return at


def _outcome(parse, path, **kwargs):
    """The columns `parse` reads from `path`, or the class and location of
    the error it raises."""
    try:
        return _columns(parse(path, **kwargs))
    except (ParseError, EmptyFile) as exc:
        return type(exc), getattr(exc, "line", None), getattr(exc, "column",
                                                              None)


# one fault of each kind, as the fields to overwrite given a peak's start s,
# width w and a draw k >= 0; an inverted interval also drops the summit so
# that the line has one fault.  The two kinds in _MOVED are reported at
# another column than the reference reported them: (reference, now)
_FAULTS = {
    "start text": lambda s, w, k: {"start": ["x", "1.5", "", "0x10"][k % 4]},
    "end text": lambda s, w, k: {"end": ["y", "2.5", "", "1e3"][k % 4]},
    "score text": lambda s, w, k: {"score": ["high", "", "1,5", "--1"][k % 4]},
    "summit text": lambda s, w, k: {"summit": ["mid", "2.5", ""][k % 3]},
    "negative start": lambda s, w, k: {"start": str(-1 - k * 2**58)},
    "inverted interval": lambda s, w, k: {"end": str(s - k), "summit": "-1"},
    "end beyond int64": lambda s, w, k: {"end": str(2**63 + k)},
    "start beyond int64": lambda s, w, k: {"start": str(2**63 + k),
                                           "end": str(2**63 + k + w)},
    "non-finite score": lambda s, w, k: {
        "score": ["nan", "inf", "-inf", "NaN", "1e999"][k % 5]},
    "summit below -1": lambda s, w, k: {"summit": str(-2 - k)},
    "summit outside": lambda s, w, k: {"summit": str(w + k)},
    "summit beyond int64": lambda s, w, k: {"summit": str(2**63 + k)},
}
_MOVED = {"end text": (2, 3), "start beyond int64": (3, 2)}


class TestParseReference:
    """`parse_peak_file` reads what the per-line reference read, and reports
    a fault where it did, apart from the two documented column moves."""

    @pytest.mark.parametrize("format", ["narrowPeak", "bed-score"])
    @pytest.mark.parametrize("suffix", ["", ".gz"])
    @pytest.mark.parametrize("seed", range(4))
    def test_well_formed_files(self, tmp_path, format, suffix, seed):
        rng = np.random.default_rng(seed)
        path = tmp_path / f"peaks.{format}{suffix}"
        _write_peaks(path, [_peak_fields(rng, k, format)
                            for k in range(int(rng.integers(50, 300)))], rng)
        columns = ["signalValue"] if format == "bed-score" \
            else list(NARROWPEAK_SCORE_COLUMNS)
        for score_column in columns:
            got = _outcome(parse_peak_file, path, format=format,
                           score_column=score_column)
            assert got == _outcome(_parse_reference, path, format=format,
                                   score_column=score_column)
            summits = set(got[4])
            assert -1 in summits
            assert format == "bed-score" or max(summits) >= 0

    @given(st.sampled_from(sorted(_FAULTS)),
           st.sampled_from(["narrowPeak", "bed-score"]),
           st.sampled_from(sorted(NARROWPEAK_SCORE_COLUMNS)),
           st.integers(0, 2**32), st.integers(0, 40))
    @settings(max_examples=300, deadline=None)
    def test_single_fault_files(self, kind, format, score_column, seed, k):
        if kind.startswith("summit"):
            format = "narrowPeak"
        rng = np.random.default_rng(seed)
        rows = [_peak_fields(rng, r, format)
                for r in range(int(rng.integers(1, 12)))]
        bad = int(rng.integers(len(rows)))
        row = rows[bad]
        start, end = int(row[1]), int(row[2])
        index = {"start": 1, "end": 2, "summit": 9,
                 "score": 3 if format == "bed-score"
                 else NARROWPEAK_SCORE_COLUMNS[score_column]}
        for field, text in _FAULTS[kind](start, end - start, k).items():
            if index[field] < len(row):
                row[index[field]] = text
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "peaks.txt"
            lines = _write_peaks(path, rows, rng)
            want = _outcome(_parse_reference, path, format=format,
                            score_column=score_column)
            got = _outcome(parse_peak_file, path, format=format,
                           score_column=score_column)
        assert want[:2] == (ParseError, lines[bad])
        old, new = _MOVED.get(kind, (want[2], want[2]))
        assert want[2] == old and got == (ParseError, lines[bad], new)

    def test_short_line(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [_peak_fields(rng, r, "narrowPeak") for r in range(5)]
        rows[3] = rows[3][:6]
        path = tmp_path / "peaks.narrowPeak"
        lines = _write_peaks(path, rows, rng)
        want = _outcome(_parse_reference, path)
        assert want == _outcome(parse_peak_file, path)
        assert want == (ParseError, lines[3], 7)

    @pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf])
    def test_peak_table_rejects_non_finite_score(self, score):
        with pytest.raises(DomainError) as err:
            _table([Row("chr1", 0, 40, 1.0), Row("chr1", 50, 90, score)])
        assert (err.value.row, err.value.field) == (1, "score")


# field texts on which numpy's tokenizer and Python's int()/float() could
# part ways: signs, padding, digit separators, non-ASCII digits and
# letters, the separators \x1c-\x1f, overflow, non-finite values, a
# trailing '\r' and other-base or float-as-int forms
_EDGE_FIELDS = ["+5", " 5", "5 ", "-0", "007", "1_000", "1__0", "٣", "٣5",
                "Ǿ5", "5ݡ", "\x1c5", "5\x1f",
                "\xa05", "5\u2003", "1e400", "-1e400", "1e-400", "nan", "-nan",
                "NaN", "inf", "-Infinity", "1.0", "1.", ".5", "1e3", "0x10",
                "5\r", "\r5", "5\x0b", "5\x00", "", " ", "9223372036854775807",
                "9223372036854775808", "-9223372036854775809"]
_FIELD_CHARS = list("0123456789+-._ eExnaifINF٣Ǿ\xa0\u2003\x0b\x0c\x1c\x00\r")


def _python_value(text, dtype):
    """`text` as Python's int() or float() reads it into `dtype`, or None
    when that rejects it."""
    try:
        return np.array([(int if dtype is np.int64 else float)(text)], dtype)
    except (ValueError, OverflowError):
        return None


def _tokenized(rows, columns):
    """`columns` of `rows` as the readers convert them with numpy's
    tokenizer, which reads only text that is `tokenizable`, or None."""
    if not tokenizable("\n".join(rows)):
        return None
    return tokenize_columns(rows, columns)


class TestTokenizer:
    """On text that is `tokenizable`, numpy's C tokenizer accepts a subset
    of what Python's int() and float() accept, and gives the same values,
    so the walker it falls back to only ever finds faults."""

    @given(st.one_of(st.sampled_from(_EDGE_FIELDS),
                     st.text(st.sampled_from(_FIELD_CHARS), max_size=10),
                     st.text(st.characters(max_codepoint=127,
                                           blacklist_characters="\t\n\r"),
                             max_size=8)),
           st.sampled_from([np.int64, np.float64]))
    @settings(max_examples=1000, deadline=None)
    def test_accepts_a_subset_of_python_with_equal_values(self, text, dtype):
        got = _tokenized([f"x\t{text}\ty"], [(1, dtype)])
        want = _python_value(text, dtype)
        if got is not None:
            assert want is not None, text
            assert got[0].tobytes() == want.tobytes(), text

    @pytest.mark.parametrize("text, dtype, python", [
        ("1_000", np.int64, 1000), ("1_000", np.float64, 1000.0),
        ("٣", np.int64, 3), ("٣", np.float64, 3.0), ("1.0", np.int64, None),
        ("0x10", np.int64, None), ("Ǿ5", np.int64, None),
        ("\x1c5", np.int64, None), ("5\x1f", np.float64, None)])
    def test_rejects_what_only_the_walker_reads(self, text, dtype, python):
        assert _tokenized([f"x\t{text}"], [(1, dtype)]) is None
        want = _python_value(text, dtype)
        assert (None if want is None else want[0]) == python

    def test_reads_columns_of_mixed_dtypes(self):
        got = tokenize_columns(["a\t+5\t2.5\tz", "b\t 7\t-0\tz\textra"],
                               [(1, np.int64), (2, np.float64)])
        assert got[0].tolist() == [5, 7] and got[0].dtype == np.int64
        assert got[1].tobytes() == np.array([2.5, -0.0]).tobytes()

    def test_one_column_as_two_dtypes_reads_alike_walked(self):
        # compare --truth-column p2 asks for p2 as a float and as an int; a
        # non-ASCII field in a column that is not read sends the rows to the
        # walker
        columns = [(1, np.float64), (1, np.int64)]
        for tail, walks in (("", 0), ("\tré", 2)):
            rows = [f"1\t1{tail}", f"1\t0{tail}"]
            with mock.patch("idrkit.errors.parse_column",
                            wraps=parse_column) as walk:
                got = convert_columns(rows, [1, 2], columns)
            assert walk.call_count == walks
            assert [c.dtype for c in got] == [np.float64, np.int64]
            assert [c.tolist() for c in got] == [[1.0, 0.0], [1, 0]]

    def test_rejects_a_short_row(self):
        assert tokenize_columns(["a\t1\t2", "a\t1"],
                                [(1, np.int64), (2, np.int64)]) is None

    @pytest.mark.parametrize("skipped", ['track name="réplica 1"',
                                         "# \x1c\x1d\x1e\x1f",
                                         "browser position chrÜ:1-9"])
    def test_a_skipped_line_keeps_the_tokenizer(self, tmp_path, skipped):
        # a skipped line never reaches the tokenizer, so a non-ASCII
        # character or a separator it strips there sends no row to the walker
        rng = np.random.default_rng(1)
        text = "".join("\t".join(_peak_fields(rng, k, "narrowPeak")) + "\n"
                       for k in range(200))
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(f"{skipped}\n{text}", encoding="utf-8")
        with mock.patch("idrkit.errors.parse_column",
                        side_effect=AssertionError("walked")):
            got = [_bits(parse_peak_file(path)) for path in (plain, marked)]
        assert got[0] == got[1]

    def test_well_formed_file_never_reaches_the_walker(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "peaks.narrowPeak"
        _write_peaks(path, [_peak_fields(rng, k, "narrowPeak")
                            for k in range(200)], rng)
        with mock.patch("idrkit.errors.parse_column",
                        side_effect=AssertionError("walked")):
            assert len(parse_peak_file(path)) == 200


def _bits(outcome):
    """A parse outcome with every column as its bytes, so that two
    outcomes are equal only when their columns are bit-equal."""
    if isinstance(outcome, PeakTable):
        return (outcome.chrom.tolist(),
                *(getattr(outcome, name).tobytes()
                  for name in ("start", "end", "score", "summit")))
    return outcome


def _outcome_with_message(parse, path, **kwargs):
    try:
        return parse(path, **kwargs)
    except (ParseError, EmptyFile) as exc:
        return type(exc), getattr(exc, "line", None), str(exc)


def _decorated(draw, value, wild: bool):
    """`value` as a field: plain or padded, and when `wild` also in forms
    that Python reads and the tokenizer does not, or as an edge-case
    text."""
    forms = [str(value), f"+{value}", f" {value}", f"{value} "]
    if wild:
        forms += [f"{value}\r", f"{value}".replace("1", "٣"),
                  f"{value}".replace("0", "0_0"), *_EDGE_FIELDS]
    return draw(st.sampled_from(forms))


@st.composite
def _peak_files(draw):
    """The text of a narrowPeak or bed-score file: peaks with padded or
    signed fields and extra columns among comment, track, browser and blank
    lines, and in a wild file also fields that only Python reads or that
    nothing reads."""
    format = draw(st.sampled_from(["narrowPeak", "bed-score"]))
    wild = draw(st.booleans())
    lines = []
    for k in range(draw(st.integers(1, 8))):
        lines += draw(st.lists(st.sampled_from(_COMMENTS), max_size=2))
        start = draw(st.integers(0, 10**6))
        width = draw(st.integers(1, 1000))
        score = draw(st.sampled_from([0, -0.0, 1, 2.5, 1e-5, 123456.0]))
        fields = [f"chr{draw(st.integers(1, 3))}",
                  _decorated(draw, start, wild),
                  _decorated(draw, start + width, wild)]
        if format == "bed-score":
            fields.append(_decorated(draw, score, wild))
        else:
            summit = draw(st.integers(-1, width - 1))
            fields += [f"peak{k}", "0", ".",
                       *(_decorated(draw, score, wild) for _ in range(3)),
                       _decorated(draw, summit, wild)]
        fields += draw(st.lists(st.sampled_from(["x", "1", ""]), max_size=3))
        lines.append("\t".join(fields))
    return format, "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@given(_peak_files(), st.sampled_from(sorted(NARROWPEAK_SCORE_COLUMNS)),
       st.sampled_from(["", ".gz"]))
@settings(max_examples=300, deadline=None)
def test_tokenizer_and_walker_read_peak_files_alike(case, score_column,
                                                    suffix):
    format, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"peaks{suffix}"
        data = text.encode()
        path.write_bytes(gzip.compress(data) if suffix else data)
        kwargs = {"format": format, "score_column": score_column}
        got = _bits(_outcome_with_message(parse_peak_file, path, **kwargs))
        with mock.patch("idrkit.errors.tokenize_columns",
                        lambda rows, columns: None):
            walked = _bits(_outcome_with_message(parse_peak_file, path,
                                                 **kwargs))
    assert got == walked


def _truncate_reference(rows, width):
    """The per-peak loop that `truncate_to_width` replaced: a peak wider
    than `width` becomes the window of that width centered at its summit
    (its midpoint when it has none), clipped at 0, and loses its summit."""
    out = []
    for p in rows:
        if p.end - p.start <= width:
            out.append(p)
            continue
        center = (p.start + p.summit if p.summit >= 0
                  else (p.start + p.end) // 2)
        start = max(center - width // 2, 0)
        out.append(Row(p.chrom, start, start + width, p.score))
    return out


def _columns(table):
    return (table.chrom.tolist(), table.start.tolist(), table.end.tolist(),
            table.score.tolist(), table.summit.tolist())


class TestTruncation:
    def _one(self, row, width=40):
        table = truncate_to_width(_table([row]), width)
        return Row(*(col[0] for col in _columns(table)))

    def test_wide_peak_narrows_around_summit(self):
        t = self._one(Row("chr1", 1000, 2000, 5.0, 400))
        # summit at 1400; window [1380, 1420)
        assert (t.start, t.end) == (1380, 1420)
        assert t.score == 5.0 and t.summit == -1

    def test_midpoint_fallback(self):
        t = self._one(Row("chr1", 100, 300, 5.0))
        assert (t.start, t.end) == (180, 220)

    def test_narrow_peak_unchanged(self):
        p = Row("chr1", 10, 40, 5.0, 3)
        assert self._one(p) == p

    def test_clipped_at_chromosome_start(self):
        t = self._one(Row("chr1", 0, 200, 5.0, 5))
        assert (t.start, t.end) == (0, 40)

    def test_rejects_bad_width(self):
        with pytest.raises(DomainError):
            truncate_to_width(_table([Row("chr1", 0, 40)]), 0)

    def test_width_beyond_int64_narrows_nothing(self):
        table = truncate_to_width(_table([Row("chr1", 5, 10**15, 1.0, 7)]),
                                  2**64)
        assert _columns(table) == (["chr1"], [5], [10**15], [1.0], [7])

    @pytest.mark.parametrize("width", [1, 2, 7, 40, 41, 150])
    def test_matches_per_peak_reference(self, width):
        # widths at, below and above `width`, summits anywhere or none,
        # starts near 0 so that windows clip
        rng = np.random.default_rng(width)
        rows = []
        for _ in range(500):
            start = int(rng.integers(0, 3)) * int(rng.integers(0, 5000))
            size = int(rng.choice([width, max(width - 1, 1), width + 1,
                                   int(rng.integers(1, 4 * width + 2))]))
            summit = int(rng.integers(0, size)) if rng.random() < 0.5 else -1
            rows.append(Row("chr%d" % rng.integers(1, 3), start,
                            start + size, float(rng.random()), summit))
        got = _columns(truncate_to_width(_table(rows), width))
        assert got == _columns(_table(_truncate_reference(rows, width)))


class TestOverlap:
    def test_basic_and_boundary(self):
        a = Row("chr1", 100, 200)
        assert overlap_length(a, Row("chr1", 150, 250)) == 50
        # half-open intervals: touching ends share no base
        assert overlap_length(a, Row("chr1", 200, 300)) == 0
        assert overlap_length(a, Row("chr1", 199, 300)) == 1
        assert overlap_length(a, Row("chr2", 100, 200)) == 0


def _exhaustive_best(rep1, rep2):
    """Brute-force best one-to-one matching: most pairs, then most overlap."""
    feasible = [(i, j) for i in range(len(rep1)) for j in range(len(rep2))
                if overlap_length(rep1[i], rep2[j]) >= 1]
    best = (0, 0)
    k_max = min(len(rep1), len(rep2))
    for k in range(k_max, -1, -1):
        found = False
        for combo in itertools.combinations(feasible, k):
            used1 = {i for i, _ in combo}
            used2 = {j for _, j in combo}
            if len(used1) < k or len(used2) < k:
                continue
            total = sum(overlap_length(rep1[i], rep2[j]) for i, j in combo)
            best = max(best, (k, total))
            found = True
        if found:
            break
    return best


def _pair_chromosome(rep1, rep2, idx1, idx2):
    # cardinality-first optimal assignment: each feasible edge gets a bonus
    # larger than any possible total overlap, so maximizing total weight
    # maximizes the match count first and the summed overlap second
    weights = np.zeros((len(idx1), len(idx2)))
    bonus = 1.0
    for a, i in enumerate(idx1):
        for b, j in enumerate(idx2):
            ov = overlap_length(rep1[i], rep2[j])
            if ov >= 1:
                weights[a, b] = ov
                bonus += ov
    feasible = weights >= 1
    rows, cols = linear_sum_assignment(weights + bonus * feasible,
                                       maximize=True)
    out = []
    for a, b in zip(rows, cols):
        if feasible[a, b]:
            i, j = idx1[a], idx2[b]
            out.append((i, j, rep1[i].score, rep2[j].score))
    return out


def _dense_best(rep1, rep2):
    """(match count, total overlap) from one dense assignment problem per
    chromosome: the pairing method that the sweep replaced, kept as the
    reference for instances too large for the exhaustive oracle."""
    by_chrom = {}
    for idx, p in enumerate(rep1):
        by_chrom.setdefault(p.chrom, ([], []))[0].append(idx)
    for idx, p in enumerate(rep2):
        by_chrom.setdefault(p.chrom, ([], []))[1].append(idx)
    matches = []
    for idx1, idx2 in by_chrom.values():
        if idx1 and idx2:
            matches += _pair_chromosome(rep1, rep2, idx1, idx2)
    return len(matches), sum(overlap_length(rep1[i], rep2[j])
                             for i, j, _, _ in matches)


def _pairing_value(rep1, rep2, paired):
    """(match count, total overlap) of a pairing, after checking that it is
    one-to-one and pairs only overlapping peaks."""
    left = [i for i, _, _, _ in paired.matches]
    right = [j for _, j, _, _ in paired.matches]
    assert len(set(left)) == len(left) and len(set(right)) == len(right)
    overlaps = [overlap_length(rep1[i], rep2[j]) for i, j in zip(left, right)]
    assert all(ov >= 1 for ov in overlaps)
    return len(overlaps), sum(overlaps)


def _random_peaks(rng, n, n_chroms):
    """Mostly narrow peaks, with some very wide ones and some nested inside
    an earlier peak, over `n_chroms` chromosomes."""
    out = []
    for _ in range(n):
        chrom = "chr%d" % rng.integers(1, n_chroms + 1)
        kind = rng.random()
        if kind < 0.15 and out:
            host = out[int(rng.integers(len(out)))]
            start = int(rng.integers(host.start, host.end))
            end = int(rng.integers(start + 1, host.end + 1))
            chrom = host.chrom
        else:
            start = int(rng.integers(0, 2000))
            width = (rng.integers(10, 200) if kind < 0.9
                     else rng.integers(1000, 5000))
            end = start + int(width)
        out.append(Row(chrom, start, end, float(rng.random())))
    return out


def _pair(rep1, rep2):
    """pair_peaks on the tables of two lists of rows."""
    return pair_peaks(_table(rep1), _table(rep2))


class TestPairing:
    def test_simple_pairing(self):
        rep1 = [Row("chr1", 0, 40, 3.0), Row("chr1", 100, 140, 2.0)]
        rep2 = [Row("chr1", 20, 60, 5.0), Row("chr1", 300, 340, 1.0)]
        paired = _pair(rep1, rep2)
        assert len(paired.matches) == 1
        i, j, s1, s2 = paired.matches[0]
        assert (i, j) == (0, 0)
        assert (s1, s2) == (3.0, 5.0)
        assert paired.unmatched1 == 1 and paired.unmatched2 == 1

    def test_one_to_one(self):
        # one wide rep2 peak overlapping two rep1 peaks pairs with only one
        rep1 = [Row("chr1", 0, 40, 1.0), Row("chr1", 50, 90, 2.0)]
        rep2 = [Row("chr1", 0, 90, 3.0)]
        paired = _pair(rep1, rep2)
        assert len(paired.matches) == 1

    def test_chromosomes_do_not_mix(self):
        rep1 = [Row("chr1", 0, 40, 1.0)]
        rep2 = [Row("chr2", 0, 40, 2.0)]
        paired = _pair(rep1, rep2)
        assert len(paired.matches) == 0

    def test_cardinality_beats_total_overlap(self):
        # a greedy largest-overlap-first strategy would take (a0, b1) and
        # strand a1; the optimal assignment keeps both pairs
        rep1 = [Row("chr1", 0, 100, 1.0), Row("chr1", 90, 130, 2.0)]
        rep2 = [Row("chr1", 80, 130, 3.0), Row("chr1", 0, 95, 4.0)]
        paired = _pair(rep1, rep2)
        assert len(paired.matches) == 2

    @given(st.integers(min_value=0, max_value=100_000),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_matches_exhaustive_oracle(self, seed, n1, n2):
        rng = np.random.default_rng(seed)

        def draw(n):
            out = []
            for _ in range(n):
                start = int(rng.integers(0, 300))
                out.append(Row("chr1", start, start + int(rng.integers(10, 60)),
                               float(rng.random())))
            return out

        rep1, rep2 = draw(n1), draw(n2)
        paired = _pair(rep1, rep2)
        got_total = sum(overlap_length(rep1[i], rep2[j])
                        for i, j, _, _ in paired.matches)
        assert (len(paired.matches), got_total) == _exhaustive_best(rep1, rep2)

    def test_matches_sorted_canonically(self):
        rng = np.random.default_rng(5)
        rep1 = [Row("chr%d" % (i % 2 + 1), 50 * i, 50 * i + 40, 1.0)
                for i in range(8)]
        rep2 = [Row("chr%d" % (i % 2 + 1), 50 * i + 5, 50 * i + 45, 1.0)
                for i in range(8)]
        paired = _pair(rep1, rep2)
        keys = [(rep1[i].chrom, rep1[i].start) for i, _, _, _ in paired.matches]
        assert keys == sorted(keys)


    def test_matches_dense_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n_chroms = int(rng.integers(1, 4))
            rep1 = _random_peaks(rng, int(rng.integers(20, 81)), n_chroms)
            rep2 = _random_peaks(rng, int(rng.integers(20, 81)), n_chroms)
            paired = _pair(rep1, rep2)
            assert (_pairing_value(rep1, rep2, paired)
                    == _dense_best(rep1, rep2))

    def test_twenty_thousand_peaks_on_one_chromosome(self):
        # every rep2 peak overlaps rep1 peaks k and k + 1 by 10 bp, so the
        # overlap graph is one path of 40,000 peaks; a dense matrix for this
        # chromosome would take 3.2 GB
        n = 20_000
        rep1 = [Row("chr1", 100 * k, 100 * k + 60, 1.0) for k in range(n)]
        rep2 = [Row("chr1", 100 * k + 50, 100 * k + 110, 2.0)
                for k in range(n)]
        paired = _pair(rep1, rep2)
        assert _pairing_value(rep1, rep2, paired) == (n, 10 * n)
        assert paired.unmatched1 == paired.unmatched2 == 0

    def test_one_wide_peak_among_narrow_ones(self):
        # a 10 Mb rep1 peak covers 10k narrow planted pairs and one lone
        # rep2 peak; the most matches take every planted pair plus the wide
        # peak with the lone one
        starts = [s for s in range(0, 10_000_000, 1000) if s != 5_000_000]
        rep1 = [Row("chr1", s, s + 40, 1.0) for s in starts]
        rep1.append(Row("chr1", 0, 10_000_000, 9.0))
        rep2 = [Row("chr1", s + 10, s + 50, 2.0) for s in starts]
        rep2.append(Row("chr1", 5_000_000, 5_000_040, 8.0))
        paired = _pair(rep1, rep2)
        assert _pairing_value(rep1, rep2, paired) == (len(starts) + 1,
                                                     30 * len(starts) + 40)
        assert (len(rep1) - 1, len(rep2) - 1, 9.0, 8.0) in paired.matches

    def test_chromosomes_in_name_order(self):
        names = ["chr2", "chr10", "chrX", "chr1", "chr10"]
        rep1 = [Row(c, 10 * k, 10 * k + 40) for k, c in enumerate(names)]
        rep2 = [Row(c, 10 * k + 5, 10 * k + 45)
                for k, c in reversed(list(enumerate(names)))]
        paired = _pair(rep1, rep2)
        assert ([rep1[i].chrom for i, _, _, _ in paired.matches]
                == sorted(names))
        assert all(rep1[i].start + 5 == rep2[j].start
                   for i, j, _, _ in paired.matches)

    def test_identical_intervals_pair_in_index_order(self):
        rep1 = [Row("chr1", 100, 140, float(s)) for s in (3, 1, 2)]
        rep2 = [Row("chr1", 100, 140, float(s)) for s in (6, 4, 5)]
        paired = _pair(rep1, rep2)
        assert [i for i, _, _, _ in paired.matches] == [0, 1, 2]
        assert paired.matches == _pair(rep1, rep2).matches


class TestPeakValidation:
    def test_rejects_bad_interval(self):
        with pytest.raises(DomainError):
            _table([Row("chr1", 0, 40), Row("chr1", 10, 10)])
        with pytest.raises(DomainError):
            _table([Row("chr1", -5, 10)])

    def test_rejects_summit_outside(self):
        for summit in (40, -2):
            with pytest.raises(DomainError):
                _table([Row("chr1", 0, 40, 1.0, summit)])
        assert _table([Row("chr1", 0, 40, 1.0, 39)]).summit.tolist() == [39]

    def test_rejects_unequal_columns(self):
        with pytest.raises(DomainError):
            PeakTable(["chr1", "chr1"], [0, 10], [40, 50], [1.0], [-1, -1])
        with pytest.raises(DomainError):
            PeakTable("chr1", 0, 40, 1.0, -1)

    def test_coerces_column_types(self):
        table = PeakTable(("chr1", "chr10"), (0, 5), (40, 45), (1, 2),
                          (-1, 3))
        assert len(table) == 2
        assert table.chrom.dtype.kind == "U"
        assert table.score.dtype == np.float64
        assert (table.start.dtype == table.end.dtype == table.summit.dtype
                == np.int64)

    def test_center(self):
        # a wide peak is centered on its summit, else on its midpoint
        narrowed = truncate_to_width(_table([Row("chr1", 0, 40, 1.0, 10),
                                             Row("chr1", 0, 41)]), 2)
        assert narrowed.start.tolist() == [9, 19]
