"""Peak file ingestion, width normalization, and cross-replicate pairing."""

from __future__ import annotations

import gzip
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (DomainError, EmptyFile, ParseError, PeakRuleError,
                     parse_column, read_lines, tokenize_columns)

__all__ = ["PeakTable", "PairedPeaks", "parse_peak_file", "truncate_to_width",
           "pair_peaks", "overlap_length"]

NARROWPEAK_SCORE_COLUMNS = {"score": 4, "signalValue": 6, "pValue": 7,
                            "qValue": 8}
DEFAULT_WIDTH = 40


@dataclass(frozen=True, eq=False)
class PeakTable:
    """Peaks as equal-length columns: the half-open interval [start, end) on
    chromosome `chrom`, a score, and the summit's offset from `start` (-1
    when there is none).  The columns are coerced to arrays of their dtypes
    and checked in one pass against the peak rules: 0 <= start < end, a
    finite score, and a summit of -1 or in [0, end - start).  A table that
    breaks one raises PeakRuleError, naming the first bad row and field.
    """

    chrom: np.ndarray  # str
    start: np.ndarray  # int64
    end: np.ndarray  # int64
    score: np.ndarray  # float64
    summit: np.ndarray  # int64

    def __post_init__(self):
        dtypes = (str, np.int64, np.int64, np.float64, np.int64)
        for (name, column), dtype in zip(list(vars(self).items()), dtypes):
            object.__setattr__(self, name, np.asarray(column, dtype))
        if {c.shape for c in vars(self).values()} != {(self.start.size,)}:
            raise DomainError("peak columns must be 1-D and of equal length")
        start, end, summit = self.start, self.end, self.summit
        rules = (("start", start < 0, "start must be >= 0"),
                 ("end", start >= end, "end must exceed start"),
                 ("score", ~np.isfinite(self.score), "score must be finite"),
                 ("summit", (summit < -1) | (summit >= end - start),
                  "summit offset must be -1 or in [0, end - start)"))
        bad = np.flatnonzero(np.logical_or.reduce([b for _, b, _ in rules]))
        if bad.size:
            k = int(bad[0])
            field, rule = next((f, r) for f, b, r in rules if b[k])
            raise PeakRuleError(k, field, f"{rule}; got [{start[k]}, "
                                f"{end[k]}), {field} {vars(self)[field][k]}")

    def __len__(self) -> int:
        return self.start.size


@dataclass(frozen=True, eq=False)
class PairedPeaks:
    """One-to-one matches between two replicate peak tables, as columns:
    match k pairs row index1[k] of rep1, whose score is score1[k], with row
    index2[k] of rep2, whose score is score2[k]."""

    index1: np.ndarray  # int64
    index2: np.ndarray  # int64
    score1: np.ndarray  # float64
    score2: np.ndarray  # float64
    unmatched1: int
    unmatched2: int

    @cached_property
    def matches(self) -> tuple:
        """The matches as (index1, index2, score1, score2) tuples, built
        from the columns on first access and kept."""
        return tuple(zip(self.index1.tolist(), self.index2.tolist(),
                         self.score1.tolist(), self.score2.tolist()))


def parse_peak_file(path, format: str = "narrowPeak",
                    score_column: str = "signalValue") -> PeakTable:
    """Read a narrowPeak (10 columns) or bed-score (4 columns) file.

    Comment, track and browser lines are skipped.  A short line, then a field
    that does not parse (leftmost column first), then a peak that breaks a
    PeakTable rule raises ParseError with its line and column.
    """
    if format == "narrowPeak":
        score_idx = NARROWPEAK_SCORE_COLUMNS.get(score_column)
        if score_idx is None:
            raise DomainError(f"unknown score column {score_column!r}")
        columns = {"start": 1, "end": 2, "score": score_idx, "summit": 9}
    elif format == "bed-score":
        columns = {"start": 1, "end": 2, "score": 3}
    else:
        raise DomainError(f"unknown peak format {format!r}")
    dtypes = [np.float64 if name == "score" else np.int64 for name in columns]

    opener = gzip.open if Path(path).suffix == ".gz" else open
    rows, lines, tokenizable = read_lines(path, ("#", "track", "browser"),
                                          opener)
    if not rows:
        raise EmptyFile(f"no peaks parsed from {path}")
    values = tokenize_columns(rows, list(zip(columns.values(), dtypes))) \
        if tokenizable else None
    if values is None:
        values = _walk_peak_rows(rows, lines, columns.values(), dtypes)
    if len(values) == 3:  # no summit column
        values.append(np.full(len(rows), -1))
    try:
        return PeakTable([row.partition("\t")[0] for row in rows], *values)
    except PeakRuleError as fault:
        raise ParseError(lines[fault.row], columns[fault.field] + 1,
                         fault.reason) from None


def _walk_peak_rows(rows, lines, indices, dtypes) -> list:
    """The fields at `indices` of the peak lines `rows`, converted to
    `dtypes` field by field: the first short line, then the first field
    that does not parse (leftmost column first), raises ParseError."""
    # a format's last column is the last one read, so the tokenizer, too,
    # rejects exactly the short lines
    n_cols = max(indices) + 1
    split = [row.split("\t") for row in rows]
    for lineno, row in zip(lines, split):
        if len(row) < n_cols:
            raise ParseError(lineno, len(row) + 1,
                             f"expected {n_cols} columns, got {len(row)}")
    return [parse_column([row[i] for row in split], lines, i + 1,
                         float if dtype is np.float64 else int, dtype)
            for i, dtype in zip(indices, dtypes)]


def truncate_to_width(peaks: PeakTable,
                      width: int = DEFAULT_WIDTH) -> PeakTable:
    """Narrow every peak wider than `width` to a window of that width centered
    at its summit (interval midpoint when no summit is reported), clipped at
    0; narrowed peaks lose their summit.

    Peaks already at or below the width keep their interval and summit.
    """
    if width <= 0:
        raise DomainError(f"width must be > 0, got {width}")
    start, end, summit = peaks.start, peaks.end, peaks.summit
    wide = end - start > width
    if not wide.any():  # also keeps a width beyond int64 out of the sums
        return peaks
    center = np.where(summit >= 0, start + summit, (start + end) // 2)
    new_start = np.where(wide, np.maximum(center - width // 2, 0), start)
    return PeakTable(peaks.chrom, new_start,
                     np.where(wide, new_start + width, end), peaks.score,
                     np.where(wide, -1, summit))


def overlap_length(a, b) -> int:
    """Bases shared by two peaks, each read through .chrom/.start/.end."""
    if a.chrom != b.chrom:
        return 0
    return max(0, min(a.end, b.end) - max(a.start, b.start))


def pair_peaks(rep1: PeakTable, rep2: PeakTable) -> PairedPeaks:
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
    n1, n2 = len(rep1), len(rep2)
    names, code = np.unique(np.concatenate([rep1.chrom, rep2.chrom]),
                            return_inverse=True)
    # each replicate in (chromosome, start) order; order[k] is the table row
    # at sorted position k
    order1 = np.lexsort((rep1.start, code[:n1]))
    order2 = np.lexsort((rep2.start, code[n1:]))
    chrom1, start1 = code[:n1][order1], rep1.start[order1]
    chrom2, start2 = code[n1:][order2], rep2.start[order2]
    a, b, overlap = _overlapping_pairs(
        (chrom1, start1, rep1.end[order1]),
        (chrom2, start2, rep2.end[order2]), names.size)
    a, b = _assign(a, b, overlap, n1, n2)

    i, j = order1[a], order2[b]
    order = np.lexsort((j, i, start2[b], start1[a], chrom1[a]))
    i, j = i[order], j[order]
    return PairedPeaks(i, j, rep1.score[i], rep2.score[j],
                       unmatched1=n1 - i.size, unmatched2=n2 - i.size)


def _ranges(lo, hi):
    """Expand the half-open ranges [lo[q], hi[q]) into (owner q, member)."""
    counts = hi - lo
    owner = np.repeat(np.arange(lo.size), counts)
    first = np.cumsum(counts) - counts
    return owner, lo[owner] + np.arange(owner.size) - first[owner]


def _overlapping_pairs(sorted1, sorted2, n_chroms):
    """Sorted positions (a, b) of every overlapping pair, and its overlap,
    given each replicate's (chromosome code, start, end) columns in
    (chromosome, start) order."""
    chrom1, start1, end1 = sorted1
    chrom2, start2, end2 = sorted2
    bounds1 = np.searchsorted(chrom1, np.arange(n_chroms + 1))
    bounds2 = np.searchsorted(chrom2, np.arange(n_chroms + 1))
    parts_a, parts_b = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for c in range(n_chroms):
        lo1, hi1 = bounds1[c], bounds1[c + 1]
        lo2, hi2 = bounds2[c], bounds2[c + 1]
        if lo1 == hi1 or lo2 == hi2:
            continue
        s1, e1 = start1[lo1:hi1], end1[lo1:hi1]
        s2, e2 = start2[lo2:hi2], end2[lo2:hi2]
        # two intervals overlap iff one starts inside the other; ties in
        # start go to the first set only, so each pair is listed once
        a, b = _ranges(np.searchsorted(s2, s1, "left"),
                       np.searchsorted(s2, e1, "left"))
        b2, a2 = _ranges(np.searchsorted(s1, s2, "right"),
                         np.searchsorted(s1, e2, "left"))
        parts_a += [lo1 + a, lo1 + a2]
        parts_b += [lo2 + b, lo2 + b2]
    a, b = np.concatenate(parts_a), np.concatenate(parts_b)
    overlap = np.minimum(end1[a], end2[b]) - np.maximum(start1[a], start2[b])
    return a, b, overlap


def _assign(a, b, overlap, n1, n2):
    """The edges (a, b) of a maximum matching with the most total overlap."""
    # an edge is a component of its own exactly when neither of its peaks
    # overlaps another one, and then it is that component's matching
    single = ((np.bincount(a, minlength=n1)[a] == 1)
              & (np.bincount(b, minlength=n2)[b] == 1))
    if single.all():
        return a, b
    multi = ~single
    rows, cols = _solve_components(a[multi], b[multi], overlap[multi], n1, n2)
    return (np.concatenate([a[single], rows]),
            np.concatenate([b[single], cols]))


def _solve_components(a, b, overlap, n1, n2):
    """Split the edges (a, b) into the connected components of their overlap
    graph and solve each as its own cardinality-first assignment problem.

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
    from scipy.sparse import coo_array, csr_array
    from scipy.sparse.csgraph import (connected_components,
                                      min_weight_full_bipartite_matching)

    graph = coo_array((np.ones(a.size), (a, n1 + b)), shape=(n1 + n2,) * 2)
    comp = connected_components(graph, directed=False)[1][a]
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
