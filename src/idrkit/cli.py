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
from pathlib import Path

import numpy as np

from . import __version__
from . import dists
from .combine import fisher_statistics, stouffer_statistics
from .curves import DEFAULT_GRID_SIZE, DEFAULT_SPLINE_DF, correspondence_curve
from .errors import (DegenerateComponent, DomainError, EmptyFile, EmptyInput,
                     IdrKitError, NumericalUnderflow, ParseError)
from .lrt import bootstrap_lrt
from .mixture import FitConfig, fit
from .peaks import DEFAULT_WIDTH, pair_peaks, parse_peak_file, truncate_to_width
from .ranking import ScoredPairSet, rank_scores
from .selection import select_at_idr
from .simulate import (NOMINAL_GRID, SimComponent, SimScenario,
                       scenario_preset, scenario_report)

SEED_ENV_VAR = "IDRKIT_SEED"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(path, subcommand: str, args: argparse.Namespace,
                    inputs: list, seed) -> None:
    flags = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    manifest = {
        "subcommand": subcommand,
        "flags": {k: str(v) for k, v in flags.items()},
        "rng_seed": seed,
        "input_digests": {str(p): _sha256(p) for p in inputs},
        "tool_version": __version__,
    }
    with open(path, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _default_seed(value):
    if value is not None:
        return value
    env = os.environ.get(SEED_ENV_VAR)
    return int(env) if env else 0


def _read_pair_table(path):
    """Read a TSV of paired scores: either a `pair` output (score1/score2
    columns) or a plain two-column numeric file.  Returns (header, rows,
    scores1, scores2)."""
    with open(path) as handle:
        reader = csv.reader(handle, delimiter="\t")
        rows = [row for row in reader if row and not row[0].startswith("#")]
    if not rows:
        raise EmptyFile(f"no rows in {path}")
    header = None
    if any(name in rows[0] for name in ("score1", "p1")):
        header = rows[0]
        rows = rows[1:]
        if not rows:
            raise EmptyFile(f"no data rows in {path}")
        i1 = header.index("score1" if "score1" in header else "p1")
        i2 = header.index("score2" if "score2" in header else "p2")
    else:
        i1, i2 = 0, 1
    try:
        s1 = np.array([float(r[i1]) for r in rows])
        s2 = np.array([float(r[i2]) for r in rows])
    except (ValueError, IndexError) as exc:
        raise ParseError(0, 0, f"bad score table {path}: {exc}") from None
    return header, rows, s1, s2


def _fit_config_from_args(args) -> FitConfig:
    return FitConfig(n_inits=args.inits, rng_seed=args.seed)


# ----------------------------------------------------------------- commands


def _cmd_pair(args) -> int:
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
    _write_manifest(f"{args.output}.manifest.json", "pair", args,
                    [args.rep1, args.rep2], None)
    return 0


def _cmd_fit(args) -> int:
    header, rows, s1, s2 = _read_pair_table(args.input)
    ranked = rank_scores(ScoredPairSet(s1, s2))
    result = fit(ranked, _fit_config_from_args(args), threads=args.threads)
    theta = result.theta
    with open(f"{args.output_prefix}.json", "w") as out:
        json.dump({"pi1": theta.pi1, "mu1": theta.mu1,
                   "sigma1_sq": theta.sigma1_sq, "rho1": theta.rho1,
                   "loglik": result.loglik, "converged": result.converged},
                  out, indent=2)
        out.write("\n")
    with open(f"{args.output_prefix}.tsv", "w") as out:
        cols = header if header else ["score1", "score2"]
        out.write("\t".join(cols) + "\tposterior\n")
        for row, post in zip(rows, result.posterior):
            row = row if header else [_fmt(s) for s in row[:2]]
            out.write("\t".join(row) + f"\t{_fmt(post)}\n")
    _write_manifest(f"{args.output_prefix}.manifest.json", "fit", args,
                    [args.input], args.seed)
    if args.strict and not result.converged:
        print("error[nonconvergence]: no start met the outer tolerance",
              file=sys.stderr)
        return 3
    return 0


def _cmd_curve(args) -> int:
    _, _, s1, s2 = _read_pair_table(args.input)
    ranked = rank_scores(ScoredPairSet(s1, s2))
    curve = correspondence_curve(ranked, args.grid, args.df)
    with open(args.output, "w") as out:
        out.write("t,psi,psi_prime\n")
        for t, p, dp in zip(curve.t_grid, curve.psi, curve.psi_prime):
            out.write(f"{_fmt(t)},{_fmt(p)},{_fmt(dp)}\n")
    _write_manifest(f"{args.output}.manifest.json", "curve", args,
                    [args.input], None)
    return 0


def _cmd_select(args) -> int:
    with open(args.input) as handle:
        reader = csv.reader(handle, delimiter="\t")
        rows = list(reader)
    if len(rows) < 2:
        raise EmptyFile(f"no data rows in {args.input}")
    header = rows[0]
    if "posterior" not in header:
        raise ParseError(1, 0, "input must be a fit TSV with a posterior "
                               "column")
    post_idx = header.index("posterior")
    data_rows = rows[1:]
    local = np.array([1.0 - float(r[post_idx]) for r in data_rows])
    order = np.argsort(local, kind="stable")
    cumulative = np.cumsum(local[order]) / np.arange(1, local.size + 1)
    n_sel = int(np.nonzero(cumulative <= args.idr_threshold)[0][-1] + 1) \
        if np.any(cumulative <= args.idr_threshold) else 0
    with open(args.output, "w") as out:
        out.write("\t".join(header) + "\tlocal_idr\tcumulative_idr\n")
        for pos in range(n_sel):
            row = data_rows[order[pos]]
            out.write("\t".join(row)
                      + f"\t{_fmt(local[order[pos]])}\t{_fmt(cumulative[pos])}\n")
    print(f"selected {n_sel} of {local.size} signals at IDR "
          f"{args.idr_threshold}", file=sys.stderr)
    _write_manifest(f"{args.output}.manifest.json", "select", args,
                    [args.input], None)
    return 0


def _load_scenario(spec: str, n: int, seed: int) -> SimScenario:
    if spec in ("S1", "S2", "S3", "S4"):
        return scenario_preset(spec, n=n, seed=seed)
    with open(spec) as handle:
        raw = json.load(handle)
    comps = tuple(SimComponent(pi=c["pi"], mu=c["mu"], rho=c["rho"],
                               sigma_sq=c.get("sigma_sq", 1.0))
                  for c in raw["components"])
    return SimScenario(components=comps, n=n, seed=seed,
                       label=raw.get("label", Path(spec).stem))


def _cmd_simulate(args) -> int:
    scenario = _load_scenario(args.scenario, args.n, args.seed)
    report = scenario_report(scenario, args.reps,
                             fit_config=_fit_config_from_args(args),
                             threads=args.threads)
    prefix = args.output_prefix
    with open(f"{prefix}.params.csv", "w") as out:
        out.write("rep,pi1,mu1,sigma1_sq,rho1,loglik,converged\n")
        for rep, pi1, mu1, s2, rho1, ll, conv in report.fit_rows:
            out.write(f"{rep},{_fmt(pi1)},{_fmt(mu1)},{_fmt(s2)},"
                      f"{_fmt(rho1)},{_fmt(ll)},{conv}\n")
        cols = list(zip(*[r[1:5] for r in report.fit_rows]))
        means = [float(np.mean(c)) for c in cols]
        sds = [float(np.std(c, ddof=1)) if len(c) > 1 else 0.0 for c in cols]
        out.write("mean," + ",".join(_fmt(v) for v in means) + ",,\n")
        out.write("sd," + ",".join(_fmt(v) for v in sds) + ",,\n")
    with open(f"{prefix}.calibration.csv", "w") as out:
        out.write("method,nominal,empirical_fdr,n_selected\n")
        for row in report.calibration.rows:
            out.write(f"{row.method},{_fmt(row.nominal)},"
                      f"{_fmt(row.empirical_fdr)},{_fmt(row.n_selected)}\n")
    with open(f"{prefix}.tradeoff.csv", "w") as out:
        out.write("method,rep,threshold,incorrect,correct\n")
        for row in report.tradeoff.rows:
            out.write(f"{row.method},{row.rep},{_fmt(row.threshold)},"
                      f"{row.incorrect},{row.correct}\n")
    inputs = [] if args.scenario in ("S1", "S2", "S3", "S4") \
        else [args.scenario]
    _write_manifest(f"{prefix}.manifest.json", "simulate", args, inputs,
                    args.seed)
    return 0


def _cmd_compare(args) -> int:
    with open(args.input) as handle:
        reader = csv.reader(handle, delimiter="\t")
        rows = [row for row in reader if row]
    if len(rows) < 2:
        raise EmptyFile(f"no data rows in {args.input}")
    header = rows[0]
    if "p1" not in header or "p2" not in header:
        raise ParseError(1, 0, "compare input needs p1 and p2 columns")
    i1, i2 = header.index("p1"), header.index("p2")
    p1 = np.array([float(r[i1]) for r in rows[1:]])
    p2 = np.array([float(r[i2]) for r in rows[1:]])
    truth = None
    if args.truth_column in header:
        truth = np.array([int(r[header.index(args.truth_column)])
                          for r in rows[1:]])

    ranked = rank_scores(ScoredPairSet(-p1, -p2))
    result = fit(ranked, _fit_config_from_args(args), threads=args.threads)
    from .selection import idr_table
    table = idr_table(ranked, result.theta)
    per_signal_idr = np.empty(p1.size)
    per_signal_idr[table.original_index] = table.local_idr
    stats = {
        "idr": per_signal_idr,
        "rep1": dists.bh_adjust(p1),
        "fisher": dists.bh_adjust(fisher_statistics(p1, p2)),
        "stouffer": dists.bh_adjust(stouffer_statistics(p1, p2)),
    }
    with open(args.output, "w") as out:
        if truth is not None:
            out.write("method,threshold,incorrect,correct\n")
        else:
            out.write("method,threshold,n_selected\n")
        for thr in NOMINAL_GRID:
            for method, values in stats.items():
                called = values < thr
                if truth is not None:
                    genuine = truth == 1
                    out.write(f"{method},{_fmt(thr)},"
                              f"{int(np.count_nonzero(called & ~genuine))},"
                              f"{int(np.count_nonzero(called & genuine))}\n")
                else:
                    out.write(f"{method},{_fmt(thr)},"
                              f"{int(np.count_nonzero(called))}\n")
    _write_manifest(f"{args.output}.manifest.json", "compare", args,
                    [args.input], args.seed)
    if args.strict and not result.converged:
        print("error[nonconvergence]: no start met the outer tolerance",
              file=sys.stderr)
        return 3
    return 0


def _cmd_lrt(args) -> int:
    _, _, s1, s2 = _read_pair_table(args.input)
    ranked = rank_scores(ScoredPairSet(s1, s2))
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
    _write_manifest(f"{args.output}.manifest.json", "lrt", args,
                    [args.input], args.seed)
    return 0


# ------------------------------------------------------------------ parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="idrkit",
                     description="Reproducibility of ranked signal lists")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, seeded=True):
        if seeded:
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


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if hasattr(args, "seed"):
            args.seed = _default_seed(args.seed)
        return args.func(args)
    except _UsageError as exc:
        print(f"error[usage]: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"error[parse]: {exc}", file=sys.stderr)
        return 2
    except (EmptyFile, EmptyInput) as exc:
        print(f"error[empty]: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error[domain]: {exc}", file=sys.stderr)
        return 2
    except (DegenerateComponent, NumericalUnderflow) as exc:
        print(f"error[numeric]: {exc}", file=sys.stderr)
        return 2
    except (OSError, EOFError, zlib.error) as exc:
        # OSError covers a missing file, a directory, a permission error and
        # a gzip file with a bad header or checksum; a truncated gzip stream
        # raises EOFError and a garbled compressed body zlib.error
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2
    except IdrKitError as exc:
        print(f"error[internal]: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
