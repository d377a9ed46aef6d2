"""Peak file ingestion, width normalization, and cross-replicate pairing."""

from __future__ import annotations

import gzip
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.sparse import coo_array, csr_array
from scipy.sparse.csgraph import (connected_components,
                                  min_weight_full_bipartite_matching)

from .errors import DomainError, EmptyFile, ParseError

__all__ = ["Peak", "PairedPeaks", "parse_peak_file", "truncate_to_width",
           "pair_peaks", "overlap_length"]

NARROWPEAK_SCORE_COLUMNS = {"score": 4, "signalValue": 6, "pValue": 7,
                            "qValue": 8}
DEFAULT_WIDTH = 40


@dataclass(frozen=True)
class Peak:
    """Half-open genomic interval [start, end) with an optional summit."""

    chrom: str
    start: int
    end: int
    score: float
    summit_offset: int | None = None
    source_line: int = 0

    def __post_init__(self):
        if self.start < 0 or self.start >= self.end:
            raise DomainError(
                f"invalid interval [{self.start}, {self.end})")
        if self.summit_offset is not None and not (
                0 <= self.summit_offset < self.end - self.start):
            raise DomainError(
                f"summit offset {self.summit_offset} outside "
                f"[0, {self.end - self.start})")

    @property
    def center(self) -> int:
        if self.summit_offset is not None:
            return self.start + self.summit_offset
        return (self.start + self.end) // 2


@dataclass(frozen=True)
class PairedPeaks:
    """One-to-one matches between two replicate peak lists."""

    matches: tuple  # (index_rep1, index_rep2, score1, score2)
    unmatched1: int
    unmatched2: int


def _open_text(path):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rt")
    return open(path, "rt")


def parse_peak_file(path, format: str = "narrowPeak",
                    score_column: str = "signalValue") -> list[Peak]:
    """Read a narrowPeak (10 columns) or bed-score (4 columns) file.

    Malformed lines, including a NaN or infinite score, raise ParseError
    with their line number; comment and track lines are skipped.
    """
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

    peaks: list[Peak] = []
    with _open_text(path) as handle:
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
            try:
                score = float(fields[score_idx])
            except ValueError:
                raise ParseError(lineno, score_idx + 1,
                                 f"bad score {fields[score_idx]!r}") from None
            if not math.isfinite(score):
                raise ParseError(lineno, score_idx + 1,
                                 f"non-finite score {fields[score_idx]!r}")
            summit = None
            if format == "narrowPeak":
                try:
                    raw_summit = int(fields[9])
                except ValueError:
                    raise ParseError(lineno, 10,
                                     f"bad summit {fields[9]!r}") from None
                if raw_summit >= 0:
                    if raw_summit >= end - start:
                        raise ParseError(lineno, 10,
                                         f"summit {raw_summit} outside peak")
                    summit = raw_summit
            peaks.append(Peak(chrom=fields[0], start=start, end=end,
                              score=score, summit_offset=summit,
                              source_line=lineno))
    if not peaks:
        raise EmptyFile(f"no peaks parsed from {path}")
    return peaks


def truncate_to_width(peaks, width: int = DEFAULT_WIDTH) -> list[Peak]:
    """Narrow every peak wider than `width` to a window of that width centered
    at its summit (interval midpoint when no summit is reported), clipped at 0.

    Peaks already at or below the width are returned unchanged.
    """
    if width <= 0:
        raise DomainError(f"width must be > 0, got {width}")
    out = []
    for p in peaks:
        if p.end - p.start <= width:
            out.append(p)
            continue
        center = p.center
        start = max(center - width // 2, 0)
        out.append(Peak(chrom=p.chrom, start=start, end=start + width,
                        score=p.score, summit_offset=None,
                        source_line=p.source_line))
    return out


def overlap_length(a: Peak, b: Peak) -> int:
    if a.chrom != b.chrom:
        return 0
    return max(0, min(a.end, b.end) - max(a.start, b.start))


def pair_peaks(rep1, rep2) -> PairedPeaks:
    """One-to-one pairing of peaks whose coverage regions overlap by >= 1 bp.

    The matching maximizes the number of pairs and, among matchings with that
    many, the total overlap length; peaks without a partner are counted and
    dropped.

    Method: each replicate is sorted by (chromosome, start), and a
    sort-and-sweep lists exactly the k overlapping pairs: for every rep1
    peak the rep2 peaks that start inside it, and for every rep2 peak the
    rep1 peaks that start strictly inside it.  Those pairs are the edges of a
    bipartite graph whose connected components can be matched independently,
    because the optimum decomposes over them.  A component with one edge is
    matched directly; every larger component is solved as its own
    cardinality-first assignment problem on its sparse edge list.  For n
    peaks and k overlapping pairs, the sweep and the component split take
    O((n + k) log n) time, and memory is O(n + k); the assignment adds the
    solver's time on each multi-edge component, which is small unless one
    component holds thousands of peaks.

    Among equally optimal matchings, the one returned may differ from
    releases that solved each chromosome as one dense assignment problem.
    Matches are reported in (chromosome, rep1 start, rep2 start, rep1 index,
    rep2 index) order.
    """
    chroms = sorted({p.chrom for p in rep1} | {p.chrom for p in rep2})
    code = {name: k for k, name in enumerate(chroms)}
    cols1 = _sorted_columns(rep1, code)
    cols2 = _sorted_columns(rep2, code)
    a, b, overlap = _overlapping_pairs(cols1, cols2, len(chroms))
    a, b = _assign(a, b, overlap, len(rep1), len(rep2))

    i, j = cols1.index[a], cols2.index[b]
    order = np.lexsort((j, i, cols2.start[b], cols1.start[a], cols1.chrom[a]))
    matches = tuple((x, y, rep1[x].score, rep2[y].score)
                    for x, y in zip(i[order].tolist(), j[order].tolist()))
    return PairedPeaks(
        matches=matches,
        unmatched1=len(rep1) - len(matches),
        unmatched2=len(rep2) - len(matches),
    )


class _Columns(NamedTuple):
    """One replicate's peaks as arrays sorted by (chromosome, start)."""

    index: np.ndarray  # position in the caller's peak list
    chrom: np.ndarray  # chromosome code
    start: np.ndarray
    end: np.ndarray


def _sorted_columns(peaks, code) -> _Columns:
    n = len(peaks)
    chrom = np.fromiter((code[p.chrom] for p in peaks), np.int64, n)
    start = np.fromiter((p.start for p in peaks), np.int64, n)
    end = np.fromiter((p.end for p in peaks), np.int64, n)
    index = np.lexsort((start, chrom))
    return _Columns(index, chrom[index], start[index], end[index])


def _ranges(lo, hi):
    """Expand the half-open ranges [lo[q], hi[q]) into (owner q, member)."""
    counts = hi - lo
    owner = np.repeat(np.arange(lo.size), counts)
    first = np.cumsum(counts) - counts
    return owner, lo[owner] + np.arange(owner.size) - first[owner]


def _overlapping_pairs(cols1, cols2, n_chroms):
    """Sorted positions (a, b) of every overlapping pair, and its overlap."""
    bounds1 = np.searchsorted(cols1.chrom, np.arange(n_chroms + 1))
    bounds2 = np.searchsorted(cols2.chrom, np.arange(n_chroms + 1))
    parts_a, parts_b = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for c in range(n_chroms):
        lo1, hi1 = bounds1[c], bounds1[c + 1]
        lo2, hi2 = bounds2[c], bounds2[c + 1]
        if lo1 == hi1 or lo2 == hi2:
            continue
        s1, e1 = cols1.start[lo1:hi1], cols1.end[lo1:hi1]
        s2, e2 = cols2.start[lo2:hi2], cols2.end[lo2:hi2]
        # two intervals overlap iff one starts inside the other; ties in
        # start go to the first set only, so each pair is listed once
        a, b = _ranges(np.searchsorted(s2, s1, "left"),
                       np.searchsorted(s2, e1, "left"))
        b2, a2 = _ranges(np.searchsorted(s1, s2, "right"),
                         np.searchsorted(s1, e2, "left"))
        parts_a += [lo1 + a, lo1 + a2]
        parts_b += [lo2 + b, lo2 + b2]
    a, b = np.concatenate(parts_a), np.concatenate(parts_b)
    overlap = (np.minimum(cols1.end[a], cols2.end[b])
               - np.maximum(cols1.start[a], cols2.start[b]))
    return a, b, overlap


def _assign(a, b, overlap, n1, n2):
    """The edges (a, b) of a maximum matching with the most total overlap."""
    if a.size == 0:
        return a, b
    graph = coo_array((np.ones(a.size), (a, n1 + b)), shape=(n1 + n2,) * 2)
    comp = connected_components(graph, directed=False)[1][a]
    single = np.bincount(comp)[comp] == 1
    multi = ~single
    rows, cols = _solve_components(a[multi], b[multi], overlap[multi],
                                   comp[multi], n1, n2)
    return (np.concatenate([a[single], rows]),
            np.concatenate([b[single], cols]))


def _solve_components(a, b, overlap, comp, n1, n2):
    """Solve each component as its own cardinality-first assignment problem.

    One CSR matrix holds every component as a contiguous block: rows and
    columns are numbered component by component, and each block has the
    component's real columns followed by one private dummy column per row.
    A dummy edge weighs 1 and makes a full matching exist; a row matched to
    its dummy stays unpaired.  A real edge weighs its overlap plus a bonus
    of 1 + the component's total overlap, plus 1 for the dummy it replaces,
    so one more match outweighs any gain in summed overlap.  The solver
    works on the edge list, so one wide peak that links thousands of narrow
    ones into a single component needs no dense matrix.
    """
    if a.size == 0:
        return a, b
    comp = np.unique(comp, return_inverse=True)[1]
    n_comp = comp.max() + 1
    # (component, peak) keys number rows and columns component by component
    rows, r = np.unique(comp * n1 + a, return_inverse=True)
    cols, c = np.unique(comp * n2 + b, return_inverse=True)
    row_lo = np.searchsorted(rows // n1, np.arange(n_comp + 1))
    col_lo = np.searchsorted(cols // n2, np.arange(n_comp + 1))
    bonus = 1.0 + np.bincount(comp, weights=overlap)[comp]
    k = np.arange(rows.size)
    # weights are negated because the solver minimizes
    graph = csr_array(
        (np.concatenate([-(overlap + bonus + 1.0), -np.ones(rows.size)]),
         (np.concatenate([r, k]),
          np.concatenate([c + row_lo[comp], col_lo[rows // n1 + 1] + k]))),
        shape=(rows.size, rows.size + cols.size))
    ptr, idx, val = graph.indptr, graph.indices, graph.data
    chosen_r, chosen_c = [], []
    for g in range(n_comp):
        r0, r1 = row_lo[g], row_lo[g + 1]
        c0, c1 = col_lo[g], col_lo[g + 1]
        e0, e1 = ptr[r0], ptr[r1]
        block = csr_array((val[e0:e1], idx[e0:e1] - (c0 + r0),
                           ptr[r0:r1 + 1] - e0),
                          shape=(r1 - r0, c1 - c0 + r1 - r0))
        ra, ca = min_weight_full_bipartite_matching(block)
        real = ca < c1 - c0
        chosen_r.append(r0 + ra[real])
        chosen_c.append(c0 + ca[real])
    return (rows[np.concatenate(chosen_r)] % n1,
            cols[np.concatenate(chosen_c)] % n2)
