"""Exceptions, the UTF-8 line reader and the column converter shared across
the package.  `convert_columns` is the only caller of numpy's tokenizer and
of the per-field walker, so peak files and score tables report a short line,
then a field that does not convert, in one order and one wording; each
reader then checks its value rules on the converted arrays."""

import warnings

import numpy as np


class IdrKitError(Exception):
    """Base class for all package-specific errors."""


class DomainError(IdrKitError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class EmptyInput(IdrKitError, ValueError):
    """A dataset is too small to process (fewer than two signals)."""


_REASON_CAP = 200  # characters of a ParseError's reason that are kept


class ParseError(IdrKitError, ValueError):
    """A line of an input file could not be parsed."""

    def __init__(self, line: int, column: int, reason: str):
        if len(reason) > _REASON_CAP:  # such as a field of 10**5 digits
            reason = (f"{reason[:_REASON_CAP]}... (cut from {len(reason)} "
                      "characters)")
        self.line = line
        self.column = column
        self.reason = reason
        super().__init__(f"line {line}, column {column}: {reason}")


def utf8_text(path, opener=open, field_sep: bytes | None = b"\t") -> str:
    """The text of `opener(path)`, decoded as UTF-8 in one pass, with each
    \\r\\n and lone \\r read as \\n, as open() reads them.  Input that is not
    UTF-8 raises ParseError naming `path`, the line and the column of the
    first bad byte: its `field_sep`-separated field, or its character with
    field_sep=None."""
    with opener(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines count \n alone, which UTF-8 never uses inside a character
        head = data[data.rfind(b"\n", 0, exc.start) + 1:exc.start]
        column = 1 + (head.count(field_sep) if field_sep
                      else len(head.decode("utf-8")))
        raise ParseError(data.count(b"\n", 0, exc.start) + 1, column,
                         f"{path} is not UTF-8 text (byte "
                         f"0x{data[exc.start]:02x})") from None
    if "\r" in text:  # the one translation open() makes
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


class PeakRuleError(DomainError):
    """Peak `row` of a PeakTable breaks the rule on its `field`."""

    def __init__(self, row: int, field: str, reason: str):
        self.row, self.field, self.reason = row, field, reason
        super().__init__(f"peak {row}: {reason}")


def read_lines(path, skip: tuple, opener=open) -> tuple[list, list]:
    """The lines of the UTF-8 text file `path` that are not blank and do not
    start with one of `skip`, and their 1-based line numbers.  Readers split
    each line on tabs alone: a '"' quotes nothing, so an unbalanced one
    cannot swallow the lines after it."""
    raw = utf8_text(path, opener).split("\n")
    lines = [n for n, line in enumerate(raw, start=1)
             if line and not line.startswith(skip)]
    return [raw[n - 1] for n in lines], lines


def tokenizable(text: str) -> bool:
    """Whether numpy's C tokenizer reads the fields of `text` as Python's
    int() and float() do, or rejects them: `text` is ASCII and holds none of
    the separators \\x1c-\\x1f, which the tokenizer strips as spaces.  It
    misreads non-ASCII integer fields."""
    return text.isascii() and not any(sep in text
                                      for sep in "\x1c\x1d\x1e\x1f")


def convert_columns(rows, lines, columns) -> list:
    """The fields at the 0-based (index, dtype) `columns` of the
    tab-separated lines `rows`, numbered `lines`, as one array apiece: in one
    pass of numpy's C tokenizer when the rows are `tokenizable`, else, or
    when the tokenizer rejects a row, field by field.  Only the rows are
    judged, so a skipped line or a table's header cannot send them to the
    walk.  The walk raises ParseError at the first line too short for the
    last column, then at the first field that does not convert, leftmost
    column first."""
    values = (tokenize_columns(rows, columns)
              if tokenizable("\n".join(rows)) else None)
    if values is not None:
        return values
    n_cols = max(i for i, _ in columns) + 1
    split = [row.split("\t") for row in rows]
    for line, fields in zip(lines, split):
        if len(fields) < n_cols:
            raise ParseError(line, len(fields) + 1,
                             f"expected {n_cols} columns, got {len(fields)}")
    # keyed by (index, dtype): one column may be asked for as two dtypes
    walked = {(i, dtype): parse_column([fields[i] for fields in split],
                                       lines, i + 1, dtype)
              for i, dtype in sorted(columns, key=lambda c: c[0])}
    return [walked[column] for column in columns]


def tokenize_columns(rows, columns) -> list | None:
    """The `columns` of `rows`, as convert_columns takes them, converted by
    numpy's C tokenizer, or None when it rejects a row or a field.

    On text that is `tokenizable` the tokenizer accepts a subset of what
    Python's int() and float() accept (not '1_000' or '1.0' as an integer)
    and gives the same values, so a None only sends the rows to the walker,
    which finds the fault."""
    dtype = np.dtype([(f"f{k}", d) for k, (_, d) in enumerate(columns)])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = np.loadtxt(rows, dtype, comments=None, delimiter="\t",
                              usecols=[i for i, _ in columns],
                              quotechar=None, ndmin=1)
    except (ValueError, Warning):
        return None
    if data.size != len(rows):  # the tokenizer skipped a row
        return None
    return [data[name].copy() for name in dtype.names]


def parse_column(texts, lines, column: int, dtype) -> np.ndarray:
    """The fields `texts` of 1-based `column`, converted by Python's float()
    or int(), as `dtype` is a float type or not, into one array of `dtype`.
    Only when that fails are they walked for the first field that the
    conversion rejects or `dtype` cannot hold, which raises ParseError with
    its line, taken from `lines`, and column."""
    parse = float if np.dtype(dtype).kind == "f" else int
    try:
        return np.array(list(map(parse, texts)), dtype)
    except (ValueError, OverflowError):
        for line, text in zip(lines, texts):
            try:
                np.array(parse(text), dtype)
            except (ValueError, OverflowError) as exc:
                raise ParseError(line, column, str(exc)) from None
        raise


class EmptyFile(IdrKitError, ValueError):
    """A peak file contained no usable records."""


class DegenerateComponent(IdrKitError, RuntimeError):
    """An EM component has starved (effective count below threshold)."""


class NumericalUnderflow(IdrKitError, ArithmeticError):
    """A mixture density underflowed to zero at machine precision."""
