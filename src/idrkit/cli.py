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
from dataclasses import asdict, astuple
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .curves import DEFAULT_GRID_SIZE, DEFAULT_SPLINE_DF, correspondence_curve
from .errors import (DegenerateComponent, DomainError, EmptyFile, EmptyInput,
                     IdrKitError, NumericalUnderflow, ParseError, parse_column,
                     read_lines, tokenize_columns, utf8_text)
from .lrt import bootstrap_lrt
from .mixture import FitConfig, fit
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


_FLOAT = "{:.17g}"  # the format of every float written out


def _fmt(x: float) -> str:
    return _FLOAT.format(float(x))


def _write_csv(path, header: str, rows) -> None:
    """Comma-separated rows under `header`; floats are written by _fmt."""
    with open(path, "w") as out:
        out.write(header + "\n")
        for row in rows:
            out.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                               for v in row) + "\n")


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
    with open(f"{output}.manifest.json", "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


class _FloatIn:
    """A field parser for floats in [lo, hi]; nan is never inside."""

    def __init__(self, lo: float, hi: float, what: str):
        self.lo, self.hi, self.what = lo, hi, what

    def __call__(self, text: str) -> float:
        value = float(text)
        if not self.lo <= value <= self.hi:
            raise ValueError(f"{text!r} is not {self.what}")
        return value

    def holds(self, values: np.ndarray) -> bool:
        """Whether every value of `values` is inside."""
        return bool(((self.lo <= values) & (values <= self.hi)).all())


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
        self.records, self.lines, self.tokenizable = read_lines(path, ("#",))
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

    @cached_property
    def fields(self) -> list:
        """Each data row as the list of its fields."""
        return [record.split("\t") for record in self.records]

    def index(self, *names: str) -> int:
        """Position of the first of `names` that the header has."""
        for name in names:
            if name in self.header:
                return self.header.index(name)
        raise ParseError(self.header_line, len(self.header) + 1,
                         f"header has no {' or '.join(names)} column")

    def column(self, index: int, parse) -> np.ndarray:
        """Field `index` of every row, converted by `parse` field by field:
        a row too short to hold it, then the first field that `parse`
        rejects, raises ParseError."""
        for line, row in zip(self.lines, self.fields):
            if index >= len(row):
                raise ParseError(line, len(row) + 1, f"row has {len(row)} "
                                 f"fields, needs {index + 1}")
        return parse_column([row[index] for row in self.fields], self.lines,
                            index + 1, parse)

    def floats(self, parse: _FloatIn, *indices: int) -> list:
        """Fields `indices` of every row, converted by `parse`: by numpy's
        tokenizer in one pass, and by `column`, which finds the fault, only
        when the tokenizer rejects a field or a value is out of range."""
        if self.tokenizable:
            values = tokenize_columns(self.records,
                                      [(i, np.float64) for i in indices])
            if values is not None and all(map(parse.holds, values)):
                return values
        return [self.column(i, parse) for i in indices]


_finite = _FloatIn(-sys.float_info.max, sys.float_info.max, "finite")
_probability = _FloatIn(0.0, 1.0, "a probability in [0, 1]")
_p_value = _FloatIn(np.nextafter(0.0, 1.0), 1.0, "a p-value in (0, 1]")


def _zero_one(text: str) -> int:
    if text not in ("0", "1"):
        raise ValueError(f"truth value {text!r} is not 0 or 1")
    return int(text)


def _read_ranked(path):
    """Rank the paired scores of a table whose header names score1/score2
    (or p1/p2), such as the `pair` output, or of a headerless table whose
    first two columns are the scores.  Returns (table, ranked)."""
    table = _Table(path, lambda first: "score1" in first or "p1" in first)
    i1, i2 = (0, 1) if table.header is None else \
        (table.index("score1", "p1"), table.index("score2", "p2"))
    scores = ScoredPairSet(*table.floats(_finite, i1, i2))
    return table, rank_scores(scores)


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
    return FitConfig(n_inits=args.inits, rng_seed=args.seed)


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
    columns = (rep1.chrom[i], rep1.start[i], rep1.end[i], rep2.start[j],
               rep2.end[j], sign * paired.score1, sign * paired.score2)
    with open(args.output, "w") as out:
        out.write("chrom\tstart1\tend1\tstart2\tend2\tscore1\tscore2\n")
        row = "\t".join(["{}"] * 5 + [_FLOAT] * 2) + "\n"
        out.writelines(map(row.format,
                           *(column.tolist() for column in columns)))
    print(f"matched {i.size} peak pairs "
          f"(unmatched: {paired.unmatched1} in rep1, "
          f"{paired.unmatched2} in rep2)", file=sys.stderr)


def _cmd_fit(args) -> str | None:
    table, ranked = _read_ranked(args.input)
    result = fit(ranked, _fit_config_from_args(args), threads=args.threads)
    theta = result.theta
    with open(f"{args.output_prefix}.json", "w") as out:
        json.dump({"pi1": theta.pi1, "mu1": theta.mu1,
                   "sigma1_sq": theta.sigma1_sq, "rho1": theta.rho1,
                   "loglik": result.loglik, "converged": result.converged},
                  out, indent=2)
        out.write("\n")
    with open(f"{args.output_prefix}.tsv", "w") as out:
        header = table.header
        out.write("\t".join(header or ["score1", "score2"]) + "\tposterior\n")
        rows = table.records if header else (
            "\t".join(_fmt(s) for s in row[:2]) for row in table.fields)
        for row, post in zip(rows, result.posterior):
            out.write(f"{row}\t{_fmt(post)}\n")
    return _failure(result.converged,
                    f"the selected start (start {result.init_index})")


def _cmd_curve(args) -> None:
    _, ranked = _read_ranked(args.input)
    curve = correspondence_curve(ranked, args.grid, args.df)
    _write_csv(args.output, "t,psi,psi_prime",
               zip(curve.t_grid, curve.psi, curve.psi_prime))


def _cmd_select(args) -> None:
    table = _Table(args.input)
    [posterior] = table.floats(_probability, table.index("posterior"))
    idr = IdrTable.from_local_idr(1.0 - posterior)
    n_sel = select_at_idr(idr, args.idr_threshold)
    with open(args.output, "w") as out:
        out.write("\t".join(table.header) + "\tlocal_idr\tcumulative_idr\n")
        for pos in range(n_sel):
            out.write(table.records[idr.original_index[pos]]
                      + f"\t{_fmt(idr.local_idr[pos])}"
                      f"\t{_fmt(idr.cumulative_idr[pos])}\n")
    print(f"selected {n_sel} of {idr.n} signals at IDR "
          f"{args.idr_threshold}", file=sys.stderr)


def _load_scenario(spec: str, n: int, seed: int) -> SimScenario:
    """A preset, or a JSON file holding {"label": ..., "components": [{"pi",
    "mu", "rho", "sigma_sq" (default 1)}, ...]}."""
    if spec in _SCENARIO_PRESETS:
        return scenario_preset(spec, n=n, seed=seed)
    with utf8_text(spec, field_sep=None) as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.lineno, exc.colno, exc.msg) from None
    if not isinstance(raw, dict) or not isinstance(raw.get("components"),
                                                   list):
        raise DomainError("a scenario file must hold a JSON object with a "
                          "'components' list")
    comps = []
    for k, comp in enumerate(raw["components"]):
        given = {"sigma_sq": 1.0, **comp} if isinstance(comp, dict) else {}
        fields = {name: given.get(name)
                  for name in ("pi", "mu", "rho", "sigma_sq")}
        for name, value in fields.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise DomainError(f"scenario component {k}: field {name!r} "
                                  "is missing or not a number")
        try:
            comps.append(SimComponent(**fields))
        except DomainError as exc:
            raise DomainError(f"scenario component {k}: {exc}") from None
    return SimScenario(components=comps, n=n, seed=seed,
                       label=raw.get("label", Path(spec).stem))


def _cmd_simulate(args) -> str | None:
    scenario = _load_scenario(args.scenario, args.n, args.seed)
    report = scenario_report(scenario, args.reps,
                             fit_config=_fit_config_from_args(args),
                             threads=args.threads)
    prefix = args.output_prefix
    cols = list(zip(*[r[1:5] for r in report.fit_rows]))
    means = [float(np.mean(c)) for c in cols]
    sds = [float(np.std(c, ddof=1)) if len(c) > 1 else 0.0 for c in cols]
    _write_csv(f"{prefix}.params.csv",
               "rep,pi1,mu1,sigma1_sq,rho1,loglik,converged",
               [*report.fit_rows, ("mean", *means, "", ""),
                ("sd", *sds, "", "")])
    _write_csv(f"{prefix}.calibration.csv",
               "method,nominal,empirical_fdr,n_selected",
               map(astuple, report.calibration.rows))
    _write_csv(f"{prefix}.tradeoff.csv",
               "method,rep,threshold,incorrect,correct",
               map(astuple, report.tradeoff.rows))
    failed = [str(row[0]) for row in report.fit_rows if not row[6]]
    return _failure(not failed, "the selected starts of replicates "
                    + ", ".join(failed))


def _cmd_compare(args) -> str | None:
    table = _Table(args.input)
    # one column at a time: a bad p1 field is reported before a missing p2
    [p1] = table.floats(_p_value, table.index("p1"))
    [p2] = table.floats(_p_value, table.index("p2"))
    labeled = args.truth_column in table.header
    # without a truth column every call counts as correct, so `correct` is
    # the number of signals called
    genuine = table.column(table.index(args.truth_column), _zero_one) == 1 \
        if labeled else np.ones(p1.size, dtype=bool)

    ranked = rank_scores(ScoredPairSet(-p1, -p2))
    result = fit(ranked, _fit_config_from_args(args), threads=args.threads)
    stats = method_statistics(p1, p2, 1.0 - result.posterior)
    calls = threshold_calls(stats, genuine, NOMINAL_GRID)
    if labeled:
        _write_csv(args.output, "method,threshold,incorrect,correct", calls)
    else:
        _write_csv(args.output, "method,threshold,n_selected",
                   ((m, thr, n) for m, thr, _, n in calls))
    return _failure(result.converged,
                    f"the selected start (start {result.init_index})")


def _cmd_lrt(args) -> str | None:
    _, ranked = _read_ranked(args.input)
    result = bootstrap_lrt(ranked, n_bootstrap=args.bootstrap,
                           seed=args.seed,
                           fit_config=_fit_config_from_args(args),
                           threads=args.threads)
    with open(args.output, "w") as out:
        json.dump({"rho_null": result.rho_null,
                   "loglik_null": result.loglik_null,
                   "loglik_alt": result.loglik_alt,
                   "theta_alt": asdict(result.theta_alt),
                   "two_log_lambda": result.two_log_lambda,
                   "p_value": result.p_value,
                   "n_bootstrap": result.n_bootstrap,
                   "bootstrap_stats": [float(x)
                                       for x in result.bootstrap_stats]},
                  out, indent=2)
        out.write("\n")
    if result.loglik_alt < result.loglik_null:
        print("warning: the fitted two-component model scores "
              f"{result.loglik_null - result.loglik_alt:.6g} below the "
              "one-component null it contains, so its fit stopped short of "
              "the maximum; 2 log lambda was taken as 0", file=sys.stderr)
    return _failure(result.converged,
                    "the observed-data fit's selected start")


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
