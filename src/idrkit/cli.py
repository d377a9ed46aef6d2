"""Command-line interface.

Subcommands communicate through TSV/CSV/JSON files and are deterministic
functions of (flags, input files, seed).  Every run writes a manifest JSON
recording the subcommand, flags, seed, input digests, and tool version.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import zlib
from dataclasses import astuple
from pathlib import Path

import numpy as np

from . import __version__
from .curves import DEFAULT_GRID_SIZE, DEFAULT_SPLINE_DF, correspondence_curve
from .errors import (DegenerateComponent, DomainError, EmptyFile, EmptyInput,
                     IdrKitError, NumericalUnderflow, ParseError)
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


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


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


class _Table:
    """A tab-separated table, read whole, skipping blank lines and lines
    starting with '#'.  The first row is the header unless `is_header` says
    otherwise.  Faults are raised as EmptyFile, or as ParseError naming the
    line and column at fault.
    """

    def __init__(self, path, is_header=lambda first: True):
        self.lines, self.rows = [], []
        with open(path) as handle:
            reader = csv.reader(handle, delimiter="\t")
            for row in reader:
                if row and not row[0].startswith("#"):
                    self.lines.append(reader.line_num)
                    self.rows.append(row)
        self.header_line, self.header = 0, None
        if self.rows and is_header(self.rows[0]):
            self.header_line, self.header = self.lines.pop(0), self.rows.pop(0)
        if not self.rows:
            raise EmptyFile(f"no data rows in {path}")

    def index(self, *names: str) -> int:
        """Position of the first of `names` that the header has."""
        for name in names:
            if name in self.header:
                return self.header.index(name)
        raise ParseError(self.header_line, len(self.header) + 1,
                         f"header has no {' or '.join(names)} column")

    def column(self, index: int, parse=float) -> np.ndarray:
        values = []
        for line, row in zip(self.lines, self.rows):
            if index >= len(row):
                raise ParseError(line, len(row) + 1, f"row has {len(row)} "
                                 f"fields, needs {index + 1}")
            try:
                values.append(parse(row[index]))
            except ValueError as exc:
                raise ParseError(line, index + 1, str(exc)) from None
        return np.array(values)


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:  # also rejects nan
        raise ValueError(f"{text!r} is not a probability in [0, 1]")
    return value


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
    scores = ScoredPairSet(table.column(i1), table.column(i2))
    return table, rank_scores(scores)


def _fit_config_from_args(args) -> FitConfig:
    return FitConfig(n_inits=args.inits, rng_seed=args.seed)


# ----------------------------------------------------------------- commands
# Each command returns whether its mixture fit converged, or None when it
# fits nothing; `run` writes the manifest and applies --strict.


def _cmd_pair(args) -> None:
    rep1 = parse_peak_file(args.rep1, args.format, args.score_column)
    rep2 = parse_peak_file(args.rep2, args.format, args.score_column)
    rep1 = truncate_to_width(rep1, args.width)
    rep2 = truncate_to_width(rep2, args.width)
    paired = pair_peaks(rep1, rep2)
    sign = -1.0 if args.score_direction == "low-is-better" else 1.0
    with open(args.output, "w") as out:
        out.write("chrom\tstart1\tend1\tstart2\tend2\tscore1\tscore2\n")
        for i, j, s1, s2 in paired.matches:
            p1, p2 = rep1[i], rep2[j]
            out.write(f"{p1.chrom}\t{p1.start}\t{p1.end}\t{p2.start}\t"
                      f"{p2.end}\t{_fmt(sign * s1)}\t{_fmt(sign * s2)}\n")
    print(f"matched {len(paired.matches)} peak pairs "
          f"(unmatched: {paired.unmatched1} in rep1, "
          f"{paired.unmatched2} in rep2)", file=sys.stderr)


def _cmd_fit(args) -> bool:
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
        for row, post in zip(table.rows, result.posterior):
            row = row if header else [_fmt(s) for s in row[:2]]
            out.write("\t".join(row) + f"\t{_fmt(post)}\n")
    return result.converged


def _cmd_curve(args) -> None:
    _, ranked = _read_ranked(args.input)
    curve = correspondence_curve(ranked, args.grid, args.df)
    _write_csv(args.output, "t,psi,psi_prime",
               zip(curve.t_grid, curve.psi, curve.psi_prime))


def _cmd_select(args) -> None:
    table = _Table(args.input)
    idr = IdrTable.from_local_idr(
        1.0 - table.column(table.index("posterior"), _probability))
    n_sel = select_at_idr(idr, args.idr_threshold)
    with open(args.output, "w") as out:
        out.write("\t".join(table.header) + "\tlocal_idr\tcumulative_idr\n")
        for pos in range(n_sel):
            out.write("\t".join(table.rows[idr.original_index[pos]])
                      + f"\t{_fmt(idr.local_idr[pos])}"
                      f"\t{_fmt(idr.cumulative_idr[pos])}\n")
    print(f"selected {n_sel} of {idr.n} signals at IDR "
          f"{args.idr_threshold}", file=sys.stderr)


def _load_scenario(spec: str, n: int, seed: int) -> SimScenario:
    if spec in _SCENARIO_PRESETS:
        return scenario_preset(spec, n=n, seed=seed)
    with open(spec) as handle:
        raw = json.load(handle)
    comps = tuple(SimComponent(pi=c["pi"], mu=c["mu"], rho=c["rho"],
                               sigma_sq=c.get("sigma_sq", 1.0))
                  for c in raw["components"])
    return SimScenario(components=comps, n=n, seed=seed,
                       label=raw.get("label", Path(spec).stem))


def _cmd_simulate(args) -> None:
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


def _cmd_compare(args) -> bool:
    table = _Table(args.input)
    p1 = table.column(table.index("p1"), _probability)
    p2 = table.column(table.index("p2"), _probability)
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
    return result.converged


def _cmd_lrt(args) -> None:
    _, ranked = _read_ranked(args.input)
    result = bootstrap_lrt(ranked, n_bootstrap=args.bootstrap,
                           seed=args.seed,
                           fit_config=_fit_config_from_args(args),
                           threads=args.threads)
    with open(args.output, "w") as out:
        json.dump({"rho_null": result.rho_null,
                   "loglik_null": result.loglik_null,
                   "loglik_alt": result.loglik_alt,
                   "two_log_lambda": result.two_log_lambda,
                   "p_value": result.p_value,
                   "n_bootstrap": result.n_bootstrap,
                   "bootstrap_stats": [float(x)
                                       for x in result.bootstrap_stats]},
                  out, indent=2)
        out.write("\n")


# ------------------------------------------------------------------ parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="idrkit",
                     description="Reproducibility of ranked signal lists")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (falls back to ${SEED_ENV_VAR}, "
                            "then 0)")
        p.add_argument("--inits", type=int, default=10,
                       help="random starts for the mixture fit")
        p.add_argument("--threads", type=int, default=1)
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
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--reps", type=int, default=10)
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
    p.add_argument("--bootstrap", type=int, default=100)
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


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", 0) is None:
            args.seed = int(os.environ.get(SEED_ENV_VAR) or 0)
        converged = args.func(args)
        _write_manifest(args)
        if converged is False and args.strict:
            print("error[nonconvergence]: no start met the outer tolerance",
                  file=sys.stderr)
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
