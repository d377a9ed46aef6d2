"""Exceptions, the UTF-8 line reader and the input-field converters shared
across the package."""

import warnings
from contextlib import contextmanager

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


@contextmanager
def utf8_text(path, opener=open, field_sep: bytes | None = b"\t"):
    """`opener(path)` as UTF-8 text.  Input that is not UTF-8 raises
    ParseError naming `path`, the line and the column of the first bad byte:
    its `field_sep`-separated field, or its character with field_sep=None."""
    try:
        with opener(path, "rt", encoding="utf-8") as handle:
            yield handle
    except UnicodeDecodeError:
        raise _not_utf8(path, opener, field_sep) from None


def _not_utf8(path, opener, field_sep: bytes | None) -> "ParseError":
    # UTF-8 never uses the newline byte inside a character, so the first
    # line that fails alone is where the stream failed
    with opener(path, "rb") as handle:
        for line, raw in enumerate(handle, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                head = raw[:exc.start]
                column = 1 + (head.count(field_sep) if field_sep
                              else len(head.decode("utf-8")))
                return ParseError(line, column, f"{path} is not UTF-8 text "
                                  f"(byte 0x{raw[exc.start]:02x})")
    return ParseError(0, 0, f"{path} is not UTF-8 text")


class PeakRuleError(DomainError):
    """Peak `row` of a PeakTable breaks the rule on its `field`."""

    def __init__(self, row: int, field: str, reason: str):
        self.row, self.field, self.reason = row, field, reason
        super().__init__(f"peak {row}: {reason}")


def read_lines(path, skip: tuple, opener=open) -> tuple[list, list, bool]:
    """The lines of the UTF-8 text file `path` that are not blank and do not
    start with one of `skip`, their 1-based line numbers, and whether the
    text is `tokenizable`.  Readers split each line on tabs alone: a '"'
    quotes nothing, so an unbalanced one cannot swallow the lines after it."""
    with utf8_text(path, opener) as handle:
        text = handle.read()
    raw = text.split("\n")
    lines = [n for n, line in enumerate(raw, start=1)
             if line and not line.startswith(skip)]
    return [raw[n - 1] for n in lines], lines, tokenizable(text)


def tokenizable(text: str) -> bool:
    """Whether numpy's C tokenizer reads the fields of `text` as Python's
    int() and float() do, or rejects them: `text` is ASCII and holds none of
    the separators \\x1c-\\x1f, which the tokenizer strips as spaces.  It
    misreads non-ASCII integer fields."""
    return text.isascii() and not any(sep in text
                                      for sep in "\x1c\x1d\x1e\x1f")


def tokenize_columns(rows, columns) -> list | None:
    """The fields at the 0-based (index, dtype) `columns` of the
    tab-separated lines `rows`, cut from a text that is `tokenizable`,
    converted by numpy's C tokenizer into one array apiece, or None when it
    rejects a row or a field.

    On such text the tokenizer accepts a subset of what Python's int() and
    float() accept (not '1_000' or '1.0' as an integer) and gives the same
    values, so a None only sends the rows to the walker, parse_column,
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


def parse_column(texts, lines, column: int, parse, dtype=None) -> np.ndarray:
    """The fields `texts` of 1-based `column`, converted by `parse` into one
    array of `dtype`.  Only when that fails are they walked for the first
    field that `parse` rejects or `dtype` cannot hold, which raises
    ParseError with its line, taken from `lines`, and column."""
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
