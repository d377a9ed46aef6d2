"""Exceptions, the UTF-8 text opener and the input-field converter shared
across the package."""

from contextlib import contextmanager

import numpy as np


class IdrKitError(Exception):
    """Base class for all package-specific errors."""


class DomainError(IdrKitError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class EmptyInput(IdrKitError, ValueError):
    """A dataset is too small to process (fewer than two signals)."""


class ParseError(IdrKitError, ValueError):
    """A line of an input file could not be parsed."""

    def __init__(self, line: int, column: int, reason: str):
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
