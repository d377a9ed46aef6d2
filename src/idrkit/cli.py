"""Command-line interface.

Subcommands communicate through TSV/CSV/JSON files and are deterministic
functions of (flags, input files, seed).  Every run writes a manifest JSON
recording the subcommand, flags, seed, input digests, and tool version.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import warnings
import zlib
from collections import namedtuple
from dataclasses import asdict, astuple, fields

import numpy as np

from . import __version__
from .curves import DEFAULT_GRID_SIZE, DEFAULT_SPLINE_DF, correspondence_curve
from .errors import (DegenerateComponent, DomainError, EmptyFile, EmptyInput,
                     IdrKitError, NumericalUnderflow, ParseError,
                     convert_columns, read_lines, utf8_text)
from .lrt import bootstrap_lrt
from .mixture import FitConfig, Theta, fit
from .peaks import DEFAULT_WIDTH, pair_peaks, parse_peak_file, truncate_to_width
from .ranking import ScoredPairSet, rank_scores
from .selection import IdrTable, select_at_idr
from .simulate import (NOMINAL_GRID, SimComponent, SimScenario,
                       method_statistics, scenario_preset, scenario_report,
                       threshold_calls)

SEED_ENV_VAR = "IDRKIT_SEED"
_SCENARIO_PRESETS = ("S1", "S2", "S3", "S4")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _write_table(path, header, columns, sep="\t") -> None:
    """Write the names `header`, then one line per row of `columns` (arrays
    or sequences of one length), each joined by `sep`.  A float is written
    as %.17g, which reads back to the same float; any other value by
    str().  An array column takes its format once, from its dtype."""
    formats, values = [], []
    for c in columns:
        array = isinstance(c, np.ndarray)
        formats.append("%.17g" if array and c.dtype.kind == "f" else "%s")
        values.append(c.tolist() if array else [
            "%.17g" % v if isinstance(v, float) else str(v) for v in c])
    line = sep.join(formats) + "\n"
    with open(path, "w") as out:
        out.write(sep.join(header) + "\n")
        out.writelines(line % row for row in zip(*values, strict=True))


def _write_json(path, obj, sort_keys=False) -> None:
    """Write `obj` as indented JSON and a newline.  A NaN or infinity
    raises ValueError, as JSON has no such values."""
    with open(path, "w") as out:
        json.dump(obj, out, indent=2, sort_keys=sort_keys, allow_nan=False)
        out.write("\n")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(args: argparse.Namespace) -> None:
    """Write <output>.manifest.json next to the command's output."""
    output = args.output if hasattr(args, "output") else args.output_prefix
    inputs = [getattr(args, name) for name in ("rep1", "rep2", "input")
              if hasattr(args, name)]
    if getattr(args, "scenario", _SCENARIO_PRESETS[0]) \
            not in _SCENARIO_PRESETS:
        inputs.append(args.scenario)
    flags = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    manifest = {
        "subcommand": args.subcommand,
        "flags": {k: str(v) for k, v in flags.items()},
        "rng_seed": getattr(args, "seed", None),
        "input_digests": {str(p): _sha256(p) for p in inputs},
        "tool_version": __version__,
    }
    _write_json(f"{output}.manifest.json", manifest, sort_keys=True)


# the values of a table column: `dtype` numbers in [lo, hi], which nan is not
_Rule = namedtuple("_Rule", "lo hi what dtype")


class _Table:
    """A tab-separated table, read whole, skipping blank lines and lines
    starting with '#', and split on tabs alone, as peak files are.  The first
    row is the header unless `is_header` says otherwise; a header name that
    sits wholly inside one pair of '"', as R's write.table writes it, is read
    without them.  `records` holds each data row as it was written.  Faults
    are raised as EmptyFile, or as ParseError naming the line and column at
    fault.
    """

    def __init__(self, path, is_header=lambda first: True):
        self.records, self.lines = read_lines(path, ("#",))
        self.header_line, self.header = 0, None
        if self.records:
            first = [name[1:-1] if name.count('"') == 2
                     and name[0] == name[-1] == '"' else name
                     for name in self.records[0].split("\t")]
            if is_header(first):
                self.header_line, self.header = self.lines[0], first
                self.lines, self.records = self.lines[1:], self.records[1:]
        if not self.records:
            raise EmptyFile(f"no data rows in {path}")

    def index(self, name: str) -> int:
        """Position of `name` in the header."""
        if name in self.header:
            return self.header.index(name)
        raise ParseError(self.header_line, len(self.header) + 1,
                         f"header has no {name} column")

    def columns(self, *columns: tuple[int, _Rule]) -> list:
        """The fields at each (index, rule) of `columns`, in every row, as one
        array of `rule.dtype` apiece, converted in one errors.convert_columns
        pass, which reports a short row or a field that does not convert.
        Then the first value outside its rule, leftmost column first, raises
        ParseError."""
        values = convert_columns(self.records, self.lines,
                                 [(i, rule.dtype) for i, rule in columns])
        for (i, rule), column in sorted(zip(columns, values),
                                        key=lambda c: c[0][0]):
            inside = (rule.lo <= column) & (column <= rule.hi)
            if not inside.all():
                k = int(np.argmin(inside))
                field = self.records[k].split("\t")[i]
                raise ParseError(self.lines[k], i + 1,
                                 f"{field!r} is not {rule.what}")
        return values


_finite = _Rule(-sys.float_info.max, sys.float_info.max, "finite",
                np.float64)
_probability = _Rule(0.0, 1.0, "a probability in [0, 1]", np.float64)
_p_value = _Rule(np.nextafter(0.0, 1.0), 1.0, "a p-value in (0, 1]",
                 np.float64)
_zero_one = _Rule(0, 1, "0 or 1", np.int64)


def _read_ranked(path):
    """Rank the paired scores of a table whose header names score1 and
    score2, such as the `pair` output, or of a headerless table whose first
    two columns are the scores; or the p-values of a header naming p1 and
    p2 (no score1), read as `compare` reads them and ranked on -p.  Returns
    (table, scores, ranked), the scores higher-is-better."""
    table = _Table(path, lambda first: "score1" in first or "p1" in first)
    p = table.header is not None and "score1" not in table.header
    names, rule = (("p1", "p2"), _p_value) if p else \
        (("score1", "score2"), _finite)
    at = (0, 1) if table.header is None else map(table.index, names)
    columns = table.columns(*((i, rule) for i in at))
    scores = ScoredPairSet(*((-c for c in columns) if p else columns))
    return table, scores, rank_scores(scores)


def _int_at_least(minimum: int):
    """An argparse type for integers >= `minimum`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not an integer >= {minimum}")
        return value
    return parse


_seed = _int_at_least(0)  # numpy's default_rng takes only integers >= 0
_count = _int_at_least(1)


def _fit_config_from_args(args) -> FitConfig:
    return FitConfig(n_inits=args.inits, rng_seed=args.seed,
                     threads=args.threads)


def _failure(converged: bool, fit: str) -> str | None:
    return None if converged else f"{fit} did not meet the outer tolerance"


# ----------------------------------------------------------------- commands
# A command that fits returns None when its fit converged and otherwise says
# which fit did not; `run` writes the manifest and applies --strict.


def _cmd_pair(args) -> None:
    rep1 = parse_peak_file(args.rep1, args.format, args.score_column)
    rep2 = parse_peak_file(args.rep2, args.format, args.score_column)
    rep1 = truncate_to_width(rep1, args.width)
    rep2 = truncate_to_width(rep2, args.width)
    paired = pair_peaks(rep1, rep2)
    sign = -1.0 if args.score_direction == "low-is-better" else 1.0
    i, j = paired.index1, paired.index2
    _write_table(args.output, ("chrom", "start1", "end1", "start2", "end2",
                               "score1", "score2"),
                 (rep1.chrom[i], rep1.start[i], rep1.end[i], rep2.start[j],
                  rep2.end[j], sign * paired.score1, sign * paired.score2))
    print(f"matched {i.size} peak pairs "
          f"(unmatched: {paired.unmatched1} in rep1, "
          f"{paired.unmatched2} in rep2)", file=sys.stderr)


def _cmd_fit(args) -> str | None:
    table, scores, ranked = _read_ranked(args.input)
    result = fit(ranked, _fit_config_from_args(args))
    _write_json(f"{args.output_prefix}.json",
                {**asdict(result.theta), "loglik": result.loglik,
                 "converged": result.converged})
    # a headerless table's rows are its two scores, written as floats
    header, rows = (["score1", "score2"], [*scores.scores]) \
        if table.header is None else (table.header, [table.records])
    _write_table(f"{args.output_prefix}.tsv", [*header, "posterior"],
                 [*rows, result.posterior])
    return _failure(result.converged,
                    f"the selected start (start {result.init_index})")


def _cmd_curve(args) -> None:
    _, _, ranked = _read_ranked(args.input)
    curve = correspondence_curve(ranked, args.grid, args.df)
    _write_table(args.output, ("t", "psi", "psi_prime"),
                 (curve.t_grid, curve.psi, curve.psi_prime), sep=",")


def _cmd_select(args) -> None:
    table = _Table(args.input)
    [posterior] = table.columns((table.index("posterior"), _probability))
    idr = IdrTable.from_local_idr(1.0 - posterior)
    n_sel = select_at_idr(idr, args.idr_threshold)
    _write_table(args.output,
                 [*table.header, "local_idr", "cumulative_idr"],
                 [[table.records[k] for k in idr.original_index[:n_sel]],
                  idr.local_idr[:n_sel], idr.cumulative_idr[:n_sel]])
    print(f"selected {n_sel} of {idr.local_idr.size} signals at IDR "
          f"{args.idr_threshold}", file=sys.stderr)


def _load_scenario(spec: str, n: int, seed: int) -> SimScenario:
    """A preset, or a JSON file holding {"components": [{"pi", "mu", "rho",
    "sigma_sq" (default 1)}, ...]}; other keys are ignored."""
    if spec in _SCENARIO_PRESETS:
        return scenario_preset(spec, n=n, seed=seed)
    try:
        raw = json.loads(utf8_text(spec, field_sep=None))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.colno, exc.msg) from None
    if not isinstance(raw, dict) or not isinstance(raw.get("components"),
                                                   list):
        raise DomainError("a scenario file must hold a JSON object with a "
                          "'components' list")
    comps = []
    for k, comp in enumerate(raw["components"]):
        given = {"sigma_sq": 1.0, **comp} if isinstance(comp, dict) else {}
        try:
            comps.append(SimComponent(**{
                name: given.get(name)
                for name in ("pi", "mu", "rho", "sigma_sq")}))
        except DomainError as exc:
            raise DomainError(f"scenario component {k}: {exc}") from None
    return SimScenario(components=comps, n=n, seed=seed)


def _cmd_simulate(args) -> str | None:
    scenario = _load_scenario(args.scenario, args.n, args.seed)
    report = scenario_report(scenario, args.reps,
                             fit_config=_fit_config_from_args(args))
    prefix = args.output_prefix
    # each fit row is (rep, *theta, loglik, converged)
    names = [f.name for f in fields(Theta)]
    cols = list(zip(*[r[1:1 + len(names)] for r in report.fit_rows]))
    means = [float(np.mean(c)) for c in cols]
    sds = [float(np.std(c, ddof=1)) if len(c) > 1 else 0.0 for c in cols]
    _write_table(f"{prefix}.params.csv",
                 ("rep", *names, "loglik", "converged"),
                 zip(*report.fit_rows, ("mean", *means, "", ""),
                     ("sd", *sds, "", "")), sep=",")
    _write_table(f"{prefix}.calibration.csv",
                 ("method", "nominal", "empirical_fdr", "n_selected"),
                 zip(*map(astuple, report.calibration)), sep=",")
    _write_table(f"{prefix}.tradeoff.csv",
                 ("method", "rep", "threshold", "incorrect", "correct"),
                 zip(*map(astuple, report.tradeoff)), sep=",")
    failed = [str(row[0]) for row in report.fit_rows if not row[-1]]
    return _failure(not failed, "the selected starts of replicates "
                    + ", ".join(failed))


def _cmd_compare(args) -> str | None:
    table = _Table(args.input)
    # every header lookup comes before the one conversion, so a missing p2
    # is reported before a bad p1 field
    labeled = args.truth_column in table.header
    columns = [(table.index("p1"), _p_value), (table.index("p2"), _p_value)]
    if labeled:
        columns.append((table.index(args.truth_column), _zero_one))
    pvalues = table.columns(*columns)
    # the truth column comes last; without one every call counts as correct,
    # so `correct` is the number of signals called
    genuine = pvalues.pop() == 1 if labeled \
        else np.ones(pvalues[0].size, dtype=bool)

    ranked = rank_scores(ScoredPairSet(*(-p for p in pvalues)))
    result = fit(ranked, _fit_config_from_args(args))
    stats = method_statistics(*pvalues, 1.0 - result.posterior)
    method, threshold, incorrect, correct = zip(
        *threshold_calls(stats, genuine, NOMINAL_GRID))
    counts = {"incorrect": incorrect, "correct": correct} if labeled \
        else {"n_selected": correct}
    _write_table(args.output, ("method", "threshold", *counts),
                 (method, threshold, *counts.values()), sep=",")
    return _failure(result.converged,
                    f"the selected start (start {result.init_index})")


def _cmd_lrt(args) -> str | None:
    _, _, ranked = _read_ranked(args.input)
    result = bootstrap_lrt(ranked, n_bootstrap=args.bootstrap,
                           seed=args.seed,
                           fit_config=_fit_config_from_args(args))
    alt, stats = result.alt, result.bootstrap_stats.tolist()
    # null marks a replicate whose every draw starved (an infinite statistic)
    _write_json(args.output, {
        "rho_null": result.rho_null, "loglik_null": result.loglik_null,
        "loglik_alt": alt.copula_loglik, "theta_alt": asdict(alt.theta),
        "two_log_lambda": result.two_log_lambda, "p_value": result.p_value,
        "n_bootstrap": len(stats),
        "bootstrap_stats": [None if np.isinf(x) else x for x in stats]})
    if alt.copula_loglik < result.loglik_null:
        print("warning: the fitted two-component model scores "
              f"{result.loglik_null - alt.copula_loglik:.6g} below the "
              "one-component null it contains, so its fit stopped short of "
              "the maximum; 2 log lambda was taken as 0", file=sys.stderr)
    return _failure(alt.converged, "the observed-data fit's selected start")


# ------------------------------------------------------------------ parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="idrkit",
                     description="Reproducibility of ranked signal lists")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--seed", type=_seed, default=None,
                       help=f"RNG seed (falls back to ${SEED_ENV_VAR}, "
                            "then 0)")
        p.add_argument("--inits", type=_count, default=10,
                       help="random starts for the mixture fit")
        p.add_argument("--threads", type=_count, default=1)
        p.add_argument("--strict", action="store_true",
                       help="exit 3 when the fit does not converge")

    p = sub.add_parser("pair", help="pair peaks across two replicate files")
    p.add_argument("--rep1", required=True)
    p.add_argument("--rep2", required=True)
    p.add_argument("--format", choices=["narrowPeak", "bed-score"],
                   default="narrowPeak")
    p.add_argument("--score-column",
                   choices=["score", "signalValue", "pValue", "qValue"],
                   default="signalValue")
    p.add_argument("--score-direction",
                   choices=["high-is-better", "low-is-better"],
                   default="high-is-better")
    p.add_argument("--width", type=int, default=DEFAULT_WIDTH)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_pair)

    p = sub.add_parser("fit", help="fit the copula mixture to paired scores")
    p.add_argument("--input", required=True)
    p.add_argument("--output-prefix", default="fit")
    add_common(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("curve", help="correspondence curve and derivative")
    p.add_argument("--input", required=True)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID_SIZE)
    p.add_argument("--df", type=float, default=DEFAULT_SPLINE_DF)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("select", help="select signals at a target IDR")
    p.add_argument("--input", required=True,
                   help="fit TSV with a posterior column")
    p.add_argument("--idr-threshold", type=float, default=0.05)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("simulate", help="benchmark scenarios S1-S4")
    p.add_argument("--scenario", default="S1",
                   help="S1|S2|S3|S4 or a scenario JSON file")
    p.add_argument("--n", type=_count, default=10000)
    p.add_argument("--reps", type=_count, default=10)
    p.add_argument("--output-prefix", default="sim")
    add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare",
                       help="IDR vs p-value combination on a p-value table")
    p.add_argument("--input", required=True,
                   help="TSV with p1, p2 and optionally a truth column")
    p.add_argument("--truth-column", default="truth")
    p.add_argument("--output", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("lrt", help="bootstrap likelihood-ratio test")
    p.add_argument("--input", required=True)
    p.add_argument("--bootstrap", type=_count, default=100)
    p.add_argument("--output", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_lrt)

    return parser


# the stderr class of each data error, first match first.  OSError covers a
# missing file, a directory, a permission error and a gzip file with a bad
# header or checksum; a truncated gzip stream raises EOFError and a garbled
# compressed body zlib.error
_ERROR_CLASSES = (
    (ParseError, "parse"),
    ((EmptyFile, EmptyInput), "empty"),
    (DomainError, "domain"),
    ((DegenerateComponent, NumericalUnderflow), "numeric"),
    ((OSError, EOFError, zlib.error), "io"),
    (IdrKitError, "internal"),
)


def _print_warning(message, category, filename, lineno, file=None,
                   line=None) -> None:
    # the message alone: its source location would make stderr differ
    # between checkouts
    print(f"warning: {message}", file=sys.stderr)


def run(argv) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        return _run(argv)


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", 0) is None:
            try:
                args.seed = _seed(os.environ.get(SEED_ENV_VAR) or "0")
            except argparse.ArgumentTypeError as exc:
                raise _UsageError(f"${SEED_ENV_VAR}: {exc}") from None
        failure = args.func(args)
        _write_manifest(args)
        if failure and args.strict:
            print(f"error[nonconvergence]: {failure}", file=sys.stderr)
            return 3
        return 0
    except _UsageError as exc:
        print(f"error[usage]: {exc}", file=sys.stderr)
        return 1
    except (IdrKitError, OSError, EOFError, zlib.error) as exc:
        label = next(label for kinds, label in _ERROR_CLASSES
                     if isinstance(exc, kinds))
        print(f"error[{label}]: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
