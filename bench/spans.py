"""Span tracing from outside the program.

``install`` replaces public functions of the cubecover modules with wrappers
that record a span (name, start, end, parent, op id) per call, and rebinds
every module attribute that held the original, so ``from .x import f``
bindings are traced too.  Spans stay in memory until the run dumps them.
Hooks read work counts off arguments and results at the same boundaries.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple, Sequence


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    op: int | None  # op id; None for spans outside an op (input generation)


class Tracer:
    """Span and count recorder; not thread-safe, as the benchmark sends ops from one thread."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.counts: Counter = Counter()  # exact work counts
        self.seconds: defaultdict = defaultdict(float)  # inclusive times by key

    def wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx] = Span(name, start, end, parent, self.op)
                self.seconds[name] += end - start
            if hook is not None:
                hook(self, args, kwargs, result, end - start)
            return result

        return traced

    def take(self) -> tuple[list[Span], Counter, dict]:
        """Move the spans, counts and times out, leaving the tracer empty."""
        taken = (list(self.spans), self.counts.copy(), dict(self.seconds))
        self.spans.clear()
        self.counts.clear()
        self.seconds.clear()
        self.op = None
        return taken


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for start, end in sorted(kids):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


def op_closure_error(spans: Sequence[Span], selfs: Sequence[float]) -> float:
    """Largest |sum of self times in an op - duration of the op's root span|."""
    total: defaultdict = defaultdict(float)
    root: dict = {}
    for span, s in zip(spans, selfs):
        if span.op is None:
            continue
        total[span.op] += s
        if span.parent < 0:
            root[span.op] = span.end - span.start
    return max((abs(total[op] - dur) for op, dur in root.items()), default=0.0)


# Hooks: (tracer, args, kwargs, result, seconds) -> None.  They run only when
# the call returned; a stage that raises still has its span and time.
def _parse_system(t, args, kwargs, system, _):
    t.counts["core.rationals_parsed"] += system.k * system.n + system.k


def _verify_essential(t, args, kwargs, report, _):
    t.counts["essential.vertices"] += 1 << args[0].n


def _sample_uncovered(t, args, kwargs, report, _):
    t.counts["cube.samples_drawn"] += report.samples
    t.counts["cube.samples_uncovered"] += report.uncovered_count


def _first_decomposition(t, args, kwargs, d1, _):
    t.counts["decompose.first_calls"] += 1
    t.counts["decompose.columns_moved"] += len(d1.M2)


def _attempt_refutation(t, args, kwargs, outcome, _):
    t.counts["refute.calls"] += 1
    t.counts["refute.uncovered" if outcome.status == "uncovered" else "refute.stage_failures"] += 1
    t.counts["refute.n3_columns"] += outcome.detail["block_sizes"]["N3"]
    t.counts["refute.columns"] += args[0].n


def _sample_n2(t, args, kwargs, result, _):
    t.counts["refute.n2_attempts"] += result[1]["attempts"]


def _precondition(t, args, kwargs, check, _):
    t.counts["plank.precondition_calls"] += 1


def _bang(t, args, kwargs, sv, _):
    t.counts["plank.bang_flips"] += sv.flips


def _find_small_norm(t, args, kwargs, result, _):
    t.counts["plank.rounding_attempts"] += result[1]


def _anticonc_mode(t, args, kwargs, result, seconds):
    t.seconds["anticonc." + kwargs.get("mode", "exact")] += seconds


def _subset_sums(t, args, kwargs, counts, _):
    t.counts["anticonc.subset_terms"] += 1 << len(args[0])
    t.counts["anticonc.distinct_sums"] += len(counts)


# (module, public function, hook).  Private helpers such as the Gray sweep
# are timed inside the public function that calls them.
TRACED = (
    ("cli", "run_command", None),
    ("core", "parse_system", _parse_system),
    ("construct", "lr_cover", None),
    ("essential", "verify_essential", _verify_essential),
    ("cube", "enumerate_uncovered", None),
    ("cube", "sample_uncovered", _sample_uncovered),
    ("decompose", "second_decomposition", None),
    ("decompose", "first_decomposition", _first_decomposition),
    ("refute", "attempt_refutation", _attempt_refutation),
    ("refute", "choose_n3_assignment", None),
    ("refute", "sample_n2_assignment", _sample_n2),
    ("plank", "check_small_norm_precondition", _precondition),
    ("plank", "find_uncovered_small_norm", _find_small_norm),
    ("plank", "bang_signs", _bang),
    ("anticonc", "atom_probability", _anticonc_mode),
    ("anticonc", "concentration_window_prob", _anticonc_mode),
    ("anticonc", "subset_sum_counts", _subset_sums),
)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every TRACED function of the imported cubecover package; returns the undo."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "cubecover" or name.startswith("cubecover."))]
    undo: list[tuple[object, str, object]] = []
    for modname, fname, hook in TRACED:
        original = getattr(sys.modules[f"cubecover.{modname}"], fname)
        wrapper = tracer.wrap(f"{modname}.{fname}", original, hook)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall() -> None:
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)

    return uninstall


# Per-layer metrics read off one batch.  "*_s" names are self times unless
# listed under INCLUSIVE.
SELF_TIME = {
    "cli.self_s": "cli.run_command",
    "core.parse_s": "core.parse_system",
    "construct.lr_cover_s": "construct.lr_cover",
    "essential.verify_s": "essential.verify_essential",
    "cube.enumerate_s": "cube.enumerate_uncovered",
    "cube.sample_s": "cube.sample_uncovered",
    "decompose.second_s": "decompose.second_decomposition",
    "decompose.first_s": "decompose.first_decomposition",
    "refute.self_s": "refute.attempt_refutation",
    "plank.precondition_s": "plank.check_small_norm_precondition",
    "plank.find_s": "plank.find_uncovered_small_norm",
    "plank.bang_s": "plank.bang_signs",
}
INCLUSIVE = {
    "refute.total_s": "refute.attempt_refutation",
    "refute.n3_s": "refute.choose_n3_assignment",
    "refute.n2_s": "refute.sample_n2_assignment",
    "anticonc.exact_s": "anticonc.exact",
    "anticonc.sampled_s": "anticonc.sampled",
}
COUNTS = (
    "core.rationals_parsed", "essential.vertices", "cube.samples_drawn", "decompose.first_calls",
    "decompose.columns_moved", "refute.n2_attempts", "refute.stage_failures",
    "plank.precondition_calls", "plank.bang_flips", "plank.rounding_attempts",
    "anticonc.subset_terms", "anticonc.distinct_sums",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Sequence[Span], counts: Counter, seconds: dict) -> dict[str, float]:
    """Per-layer times (s), counts and ratios of one traced batch."""
    by_name: defaultdict = defaultdict(float)
    for span, s in zip(spans, self_times(spans)):
        by_name[span.name] += s
    out: dict[str, float] = {metric: by_name[name] for metric, name in SELF_TIME.items()}
    out.update({metric: seconds.get(key, 0.0) for metric, key in INCLUSIVE.items()})
    out.update({name: counts[name] for name in COUNTS})
    out["essential.vertices_per_s"] = _ratio(counts["essential.vertices"], out["essential.verify_s"])
    out["cube.sample_uncovered_frac"] = _ratio(counts["cube.samples_uncovered"], counts["cube.samples_drawn"])
    out["refute.n3_collapse_frac"] = _ratio(counts["refute.n3_columns"], counts["refute.columns"])
    out["refute.uncovered_frac"] = _ratio(counts["refute.uncovered"], counts["refute.calls"])
    return out


def exact_counts(metrics: dict[str, float]) -> dict[str, float]:
    """The metrics that must repeat exactly on the same seed."""
    return {k: v for k, v in metrics.items()
            if k in COUNTS or k in ("cube.sample_uncovered_frac", "refute.n3_collapse_frac", "refute.uncovered_frac")}
