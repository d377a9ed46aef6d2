"""Spans around the calls into each idrkit module, and the per-layer numbers
derived from them.

Wrappers are installed from here, never from the package, and only for the
duration of a traced op: each public function is replaced under the name its
caller looks it up by (for example `idrkit.cli.fit` and `idrkit.lrt.fit`
separately), records a span, and is put back when the op ends, so untraced
ops run the unmodified code.  Spans are kept in memory as
(id, parent, name, start, end, attrs) and turned into metrics per op.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import idrkit.cli
import idrkit.lrt
import idrkit.mixture
import idrkit.peaks
import idrkit.simulate


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, span_id, parent, name, start):
        self.id, self.parent, self.name = span_id, parent, name
        self.start, self.end, self.attrs = start, None, {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Holds the spans and counts of the op in progress."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.overlap_tests = [0]
        self._patches: list[tuple] = []

    @contextmanager
    def tracing(self, root: str):
        """Install the wrappers and record everything under a root span."""
        self._install()
        span = self.open(root)
        try:
            yield
        finally:
            self.close(span)
            self._uninstall()

    def open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.remove(span)

    def take(self) -> tuple[list[Span], int]:
        """Hand over the op's spans and overlap-test count; start afresh."""
        spans, tests = self.spans, self.overlap_tests[0]
        self.spans, self.stack, self.overlap_tests[0] = [], [], 0
        return spans, tests

    # -------------------------------------------------------------- patching

    def _wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                self.close(span)
            if on_result is not None:
                span.attrs.update(on_result(result))
            return result
        return traced

    def _patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _install(self) -> None:
        fit_attrs = lambda r: {"converged": r.converged,  # noqa: E731
                               "n_outer_iters": r.n_outer_iters}
        rank_attrs = lambda r: {"ties": r.n_ties}  # noqa: E731
        for module in (idrkit.cli, idrkit.lrt):
            self._patch(module, "fit", self._wrap(
                "mixture.fit", idrkit.mixture.fit, fit_attrs))
            self._patch(module, "rank_scores", self._wrap(
                "ranking.rank", module.rank_scores, rank_attrs))
        mixture = idrkit.mixture
        for attr, name in (("compute_pseudo_data", "mixture.refresh"),
                           ("em_inner", "mixture.em"),
                           ("copula_log_likelihood", "mixture.copula_ll")):
            self._patch(mixture, attr,
                        self._wrap(name, getattr(mixture, attr)))
        cli = idrkit.cli
        self._patch(cli, "correspondence_curve", self._wrap(
            "curves.curve", cli.correspondence_curve))
        self._patch(cli, "parse_peak_file", self._wrap(
            "peaks.parse", cli.parse_peak_file, lambda r: {"peaks": len(r)}))
        self._patch(cli, "truncate_to_width", self._wrap(
            "peaks.truncate", cli.truncate_to_width))
        self._patch(cli, "pair_peaks", self._wrap(
            "peaks.pair", cli.pair_peaks,
            lambda r: {"matches": len(r.matches)}))
        self._patch(cli, "bootstrap_lrt", self._wrap(
            "lrt.bootstrap", cli.bootstrap_lrt))
        self._patch(idrkit.lrt, "fit_one_component", self._wrap(
            "lrt.one_component", idrkit.lrt.fit_one_component))
        self._patch(idrkit.simulate, "simulate_dataset", self._wrap(
            "simulate.dataset", idrkit.simulate.simulate_dataset))

        # counted, not timed: it runs once per candidate peak pair
        overlap_length, tests = idrkit.peaks.overlap_length, self.overlap_tests

        def counted_overlap(a, b):
            tests[0] += 1
            return overlap_length(a, b)
        self._patch(idrkit.peaks, "overlap_length", counted_overlap)

    def _uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


# ---------------------------------------------------------------- metrics

CLI_COMMANDS = ("fit", "select", "curve", "pair", "lrt")


def layer_metrics(spans: list[Span], overlap_tests: int) -> dict:
    """Per-layer numbers of one traced op.

    The op's root span is named "op"; each CLI call is a "cli.<command>"
    span under it.  Layers that the op never reached read 0.
    """
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        children[span.parent].append(span)

    def total(name):
        return sum(s.seconds for s in by_name[name])

    def below(span, name):
        found, todo = [], list(children[span.id])
        while todo:
            child = todo.pop()
            if child.name == name:
                found.append(child)
            todo.extend(children[child.id])
        return found

    refresh = by_name["mixture.refresh"]
    fits = by_name["mixture.fit"]
    done_fits = [s for s in fits if "error" not in s.attrs]
    fit_refreshes = sum(len(below(s, "mixture.refresh")) for s in done_fits)
    matches = sum(s.attrs.get("matches", 0) for s in by_name["peaks.pair"])
    lrt_fits = [s for b in by_name["lrt.bootstrap"]
                for s in below(b, "mixture.fit")]
    op_s = total("op")
    metrics = {
        "mixture.refresh.calls": len(refresh),
        "mixture.refresh.s": total("mixture.refresh"),
        "mixture.refresh.ms_per_call":
            1e3 * total("mixture.refresh") / len(refresh) if refresh else 0.0,
        "mixture.refresh.op_share":
            total("mixture.refresh") / op_s if op_s else 0.0,
        "mixture.em.calls": len(by_name["mixture.em"]),
        "mixture.em.s": total("mixture.em"),
        "mixture.em.starved": sum(s.attrs.get("error") == "DegenerateComponent"
                                  for s in by_name["mixture.em"]),
        "mixture.copula_ll.calls": len(by_name["mixture.copula_ll"]),
        "mixture.copula_ll.s": total("mixture.copula_ll"),
        "mixture.fit.calls": len(fits),
        "mixture.fit.s": total("mixture.fit"),
        "mixture.fit.converged":
            sum(s.attrs["converged"] for s in done_fits) / len(done_fits)
            if done_fits else 0.0,
        "mixture.fit.useful_refresh_ratio":
            sum(s.attrs["n_outer_iters"] for s in done_fits) / fit_refreshes
            if fit_refreshes else 0.0,
        "peaks.parse.s": total("peaks.parse"),
        "peaks.parse.peaks": sum(s.attrs.get("peaks", 0)
                                 for s in by_name["peaks.parse"]),
        "peaks.truncate.s": total("peaks.truncate"),
        "peaks.pair.s": total("peaks.pair"),
        "peaks.pair.matches": matches,
        "peaks.overlap_tests": overlap_tests,
        "peaks.match_ratio": matches / overlap_tests if overlap_tests else 0.0,
        "ranking.rank.calls": len(by_name["ranking.rank"]),
        "ranking.rank.s": total("ranking.rank"),
        "ranking.ties": sum(s.attrs.get("ties", 0)
                            for s in by_name["ranking.rank"]),
        "curves.curve.s": total("curves.curve"),
        "lrt.bootstrap.s": total("lrt.bootstrap"),
        "lrt.one_component.calls": len(by_name["lrt.one_component"]),
        "lrt.one_component.s": total("lrt.one_component"),
        "lrt.refits": len(lrt_fits),
        "lrt.retries": sum("error" in s.attrs for s in lrt_fits),
    }
    for command in CLI_COMMANDS:
        calls = by_name[f"cli.{command}"]
        metrics[f"cli.{command}.self_s"] = sum(
            s.seconds - sum(c.seconds for c in children[s.id]) for s in calls)
    return metrics


def median_metrics(per_op: list[dict]) -> dict:
    return {name: statistics.median(m[name] for m in per_op)
            for name in per_op[0]}
