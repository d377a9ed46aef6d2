"""idrkit benchmark: one workload, one closed-loop client, one JSON result.

    python3 bench/run.py --workload fit-select --seed 0 --seconds 10 --trace 0

Run from the repository root.  The package is imported from ./src, so the
tree under test is the one measured.  One client runs ops back to back (each
op starts when the previous one ends) with `--threads 1`:

  set-up    the workload's input sets (a small warm-up set and K timed
            sets) are generated from --seed and written under bench/.work;
            set-up is also repeated in fresh interpreters to time it
  warm-up   one untimed op on the warm-up set
  timed     ops until --seconds have passed, at least three and every timed
            set once, cycling through the timed sets
  check     every op's outputs are checked against what its inputs imply and
            must be byte-identical to those of the first op on the same set;
            a failed check, a nonzero exit code or an exception fails the op

With --trace 0 the last stdout line carries the end-to-end metrics.  With
--trace 1 the timed ops come in pairs on one input set, untraced then traced,
and the last line carries the per-layer metrics plus the tracing overhead.
Everything else (answers, samples, environment, spans) goes to
bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# the median of three rejects one op slowed by a burst of load on the host
MIN_TIMED_OPS = 3
# stop starting ops once another would end past this, so a run stays < 180 s
WALL_LIMIT_S = 150.0


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_package():
    """Import idrkit from this tree's src/, never from an installed copy."""
    if not (SRC / "idrkit" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC / 'idrkit'}; run from a "
                 "checkout of the repository")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import idrkit.cli
    if Path(idrkit.cli.__file__).resolve().parent != SRC / "idrkit":
        sys.exit(f"bench: imported idrkit from {idrkit.cli.__file__}, "
                 f"not from {SRC}")
    return idrkit.cli


def _make_input_sets(workload, seed: int, work: Path) -> list:
    """Generate the warm-up input set, then the K timed ones; set k is
    seeded seed*K + k, and the warm-up set shares set 0's seed."""
    sets = []
    for k, size in [(0, workload.warmup_size)] + [
            (k, workload.size) for k in range(workload.input_sets)]:
        inputs = work / f"inputs{len(sets)}"
        inputs.mkdir()
        state = workload.setup(seed * workload.input_sets + k, inputs, size)
        sets.append(InputSet(inputs, state))
    return sets


def _timed_setups(workload: str, seed: int, work: Path) -> list[float]:
    """Wall time of a full set-up (interpreter start, package import, input
    generation and writing) in each of SETUP_REPEATS fresh interpreters."""
    code = ("import sys; from pathlib import Path; "
            f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
            "import idrkit.cli, workloads, run; "
            f"run._make_input_sets(workloads.WORKLOADS[{workload!r}], {seed}, "
            "Path(sys.argv[1]))")
    times = []
    for k in range(SETUP_REPEATS):
        target = work / f"setup{k}"
        target.mkdir()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(target)], check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - start)
        shutil.rmtree(target)
    return times


def _digest_dir(path: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir())}


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _environment() -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "idrkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "git_commit": _git_commit(), "src_sha256": digest.hexdigest()}


class InputSet:
    """One set of generated inputs, the truth its checks need, and the
    digests of the outputs of the first op that ran on it."""

    def __init__(self, inputs: Path, state: dict):
        self.inputs, self.state = inputs, state
        self.reference: dict | None = None
        self.answers: dict = {}


class Client:
    """Runs ops of one workload back to back and checks each one."""

    def __init__(self, cli, workload, sets: list[InputSet], out: Path,
                 recorder=None):
        self.cli, self.workload, self.sets = cli, workload, sets
        self.out, self.recorder = out, recorder
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.spans: list = []

    def op(self, index: int, traced: bool = False) -> tuple[float, float]:
        """One pass of the chain on input set `index` (0 is the warm-up
        set); returns (wall s, process CPU s)."""
        target = self.sets[index]
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()
        chain = self.workload.chain(target.inputs, self.out)
        rec = self.recorder if traced else None
        self.attempted += 1
        stderr = io.StringIO()
        try:
            with redirect_stderr(stderr), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                wall, cpu, codes = self._run_chain(chain, rec)
            if any(codes):
                raise RuntimeError(f"exit codes {codes}: "
                                   f"{stderr.getvalue().strip()[-300:]}")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                answers = self.workload.check(target.state, target.inputs,
                                              self.out)
            digests = _digest_dir(self.out)
            if target.reference is None:
                target.reference, target.answers = digests, answers
            elif digests != target.reference:
                changed = sorted(k for k in digests
                                 if digests[k] != target.reference.get(k))
                raise RuntimeError(f"outputs differ from the first op on "
                                   f"input set {index}: {changed}")
        except Exception as exc:  # any failure of the op counts against it
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            if rec is not None:
                rec.take()  # an op that raised may leave spans open
            return math.nan, math.nan
        if rec is not None:
            self.spans.append(rec.take())
        return wall, cpu

    def _run_chain(self, chain, rec):
        if rec is None:
            return self._time_chain(chain, None)
        with rec.tracing("op"):
            return self._time_chain(chain, rec)

    def _time_chain(self, chain, rec):
        start_wall, start_cpu = time.perf_counter(), time.process_time()
        codes = []
        for argv in chain:
            span = rec.open(f"cli.{argv[0]}") if rec is not None else None
            codes.append(self.cli.run(argv))
            if span is not None:
                rec.close(span)
        wall = time.perf_counter() - start_wall
        cpu = time.process_time() - start_cpu
        return wall, cpu, codes


def _timed_ops(client: Client, args, run_start: float, last: float):
    """Run ops back to back until args.seconds have passed, at least
    MIN_TIMED_OPS ops and every timed input set have been timed.  Untraced,
    op j runs on timed set j mod K.  With tracing, ops come in pairs on one
    set, untraced then traced, so that the two differ only by the tracing.
    Returns the (wall, CPU) samples of the untraced and of the traced ops."""
    n_sets = len(client.sets) - 1
    min_ops = 2 if args.trace else max(MIN_TIMED_OPS, n_sets)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        done = len(plain) + len(traced)
        if done >= min_ops and time.perf_counter() - start >= args.seconds:
            break
        if done >= 1 and time.perf_counter() - run_start + last > WALL_LIMIT_S:
            break
        use_trace = bool(args.trace) and done % 2 == 1
        index = 1 + (done // 2 if args.trace else done) % n_sets
        op_start = time.perf_counter()
        sample = client.op(index, traced=use_trace)
        last = time.perf_counter() - op_start
        (traced if use_trace else plain).append(sample)
    return plain, traced


def main(argv=None) -> int:
    args = _parse_args(argv)
    run_start = time.perf_counter()
    cli = _import_package()
    import_s = time.perf_counter() - run_start
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from "
                 f"{sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    recorder = tracing.Recorder() if args.trace else None
    try:
        setup_times = _timed_setups(args.workload, args.seed, work)
        if recorder is None:
            sets = _make_input_sets(workload, args.seed, work)
        else:
            with recorder.tracing("setup"):
                sets = _make_input_sets(workload, args.seed, work)
            spans, _ = recorder.take()
            setup_layers = {"simulate.dataset.s": sum(
                s.seconds for s in spans if s.name == "simulate.dataset")}

        client = Client(cli, workload, sets, work / "out", recorder)
        warm_start = time.perf_counter()
        client.op(0)
        warmup_s = time.perf_counter() - warm_start
        measure_start = time.perf_counter()
        plain, traced = _timed_ops(client, args, run_start, warmup_s)
        measured_s = time.perf_counter() - measure_start
    finally:
        shutil.rmtree(work, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    good_plain = [s for s in plain if not math.isnan(s[0])]
    op_s = statistics.median(w for w, _ in good_plain) if good_plain else 0.0
    cpu_s = statistics.median(c for _, c in good_plain) if good_plain else 0.0
    setup_s = statistics.median(setup_times)
    error_rate = client.failed / client.attempted
    end_to_end = {
        "op_s": {"value": op_s, "unit": "s"},
        "cpu_s": {"value": cpu_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "error_rate": {"value": error_rate, "unit": "ratio"},
    }
    metrics = {k: end_to_end[k] for k in ("op_s", "cpu_s", "peak_rss_mb",
                                          "setup_s")}
    per_layer = {}
    if args.trace:
        per_op = [tracing.layer_metrics(spans, tests)
                  for spans, tests in client.spans]
        layers = tracing.median_metrics(per_op) if per_op else {}
        good_traced = [w for w, _ in traced if not math.isnan(w)]
        traced_op_s = statistics.median(good_traced) if good_traced else 0.0
        layers.update(setup_layers)
        layers["trace.op_s"] = traced_op_s
        layers["trace.untraced_op_s"] = op_s
        layers["trace.overhead_s"] = traced_op_s - op_s
        per_layer = {name: {"value": value, "unit": _layer_unit(name)}
                     for name, value in layers.items()}
        metrics = per_layer

    report = {
        "workload": args.workload, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "client":
            "closed loop, 1 client, --threads 1",
        "environment": _environment(),
        "answers": {("warmup" if k == 0 else f"set{k - 1}"): target.answers
                    for k, target in enumerate(client.sets)
                    if target.reference is not None},
        "samples": {"timed_ops": len(plain), "traced_ops": len(traced),
                    "op_wall_s": [w for w, _ in plain],
                    "op_cpu_s": [c for _, c in plain],
                    "traced_op_wall_s": [w for w, _ in traced],
                    "setup_s": setup_times, "import_s": import_s,
                    "warmup_s": warmup_s, "measured_s": measured_s},
        "end_to_end": end_to_end, "per_layer": per_layer,
        "attempted": client.attempted, "failed": client.failed,
        "errors": client.errors,
    }
    _write_results(args, report, client.spans)
    _print_summary(report)
    print(json.dumps({"correct": client.failed == 0,
                      "attempted": client.attempted,
                      "failed": client.failed, "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("ms_per_call"):
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(("ratio", "share", "converged")):
        return "ratio"
    return "count"


def _write_results(args, report: dict, op_spans: list) -> None:
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if not op_spans:
        return
    with open(results / f"{stem}-spans.jsonl", "w") as out:
        for op_id, (spans, _) in enumerate(op_spans):
            for s in spans:
                out.write(json.dumps({"op": op_id, "id": s.id,
                                      "parent": s.parent, "name": s.name,
                                      "start": s.start, "end": s.end,
                                      **s.attrs}) + "\n")


def _print_summary(report: dict) -> None:
    samples = report["samples"]
    print(f"# {report['workload']} seed={report['seed']} "
          f"trace={report['trace']}: {report['client']}")
    counts = {"op_s": samples["timed_ops"], "cpu_s": samples["timed_ops"],
              "setup_s": len(samples["setup_s"]), "peak_rss_mb": 1,
              "error_rate": report["attempted"]}
    for name, metric in report["end_to_end"].items():
        print(f"{name:<14} {metric['value']:>12.6g} {metric['unit']:<6} "
              f"(n={counts[name]})")
    for name, metric in report["per_layer"].items():
        print(f"{name:<36} {metric['value']:>12.6g} {metric['unit']}")
    print("answers", json.dumps(report["answers"]))
    print("environment", json.dumps(report["environment"]))
    for error in report["errors"]:
        print("error", error)


if __name__ == "__main__":
    sys.exit(main())
