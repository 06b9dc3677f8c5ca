"""Outside-in tracing of effset's layers.

`instrument` rebinds the public functions of each module to timing
wrappers, both at the defining module and at every name another effset
module imported them under (``milp.solve_lp``, ``branch_cut.solve_lfp``,
...), plus the two `Tableau` methods, and restores every name on exit.
Nothing inside the program changes; spans are kept in memory and turned
into per-layer metrics by `layer_metrics` after the traced pass.

A span's self time is its duration minus the time covered by its direct
children. The process runs one thread, so children nest strictly.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

# (module, attribute, span name, keep arguments and result on the span)
LAYERS = (
    ("simplex", "Tableau.pivot", "simplex.pivot", False),
    ("simplex", "Tableau.reduced", "simplex.reduced", False),
    ("simplex", "feasible_tableau", "simplex.phase1", False),
    ("simplex", "solve_lp", "simplex.solve_lp", False),
    ("fractional", "solve_lfp", "fractional.solve_lfp", False),
    ("milp", "solve_milp", "milp.solve_milp", True),
    ("efficiency", "is_in_solution_set", "efficiency.membership", True),
    ("branch_cut", "run", "branch_cut.run", False),
    ("branch_cut", "build_cut_sets", "branch_cut.cut_sets", False),
    ("validate", "validate_instance", "validate.validate_instance", False),
    ("generator", "generate", "generator.generate", False),
    ("oracle", "efficient_sets", "oracle.efficient_sets", False),
    ("oracle", "enumerate_feasible", "oracle.enumerate_feasible", True),
)


@dataclass(slots=True)
class Span:
    name: str
    parent: int  # index of the enclosing span in Tracer.spans, -1 at a root
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    args: tuple = ()
    result: object = None

    @property
    def total_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Collects the spans of the wrappers it hands out."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, keep: bool) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(name, parent)
            if keep:
                span.args = args
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent].child_s += span.end - span.start
            if keep:
                span.result = result
            return result

        traced.__wrapped__ = fn
        return traced


def _bindings(original: object) -> list[tuple[object, str]]:
    """Every (module, name) in the loaded effset package bound to `original`."""
    found = []
    for modname, module in list(sys.modules.items()):
        if modname == "effset" or modname.startswith("effset."):
            found.extend((module, attr) for attr, value in vars(module).items() if value is original)
    return found


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Route every layer in LAYERS through `tracer` for the duration."""
    saved: list[tuple[object, str, object]] = []
    try:
        for modname, attr, name, keep in LAYERS:
            module = sys.modules[f"effset.{modname}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = vars(owner)[method]
                targets = [(owner, method)]
            else:
                original = getattr(module, attr)
                targets = _bindings(original)
            wrapper = tracer.wrap(name, original, keep)
            for owner, target in targets:
                saved.append((owner, target, original))
                setattr(owner, target, wrapper)
        yield tracer
    finally:
        for owner, target, original in reversed(saved):
            setattr(owner, target, original)


def _children(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            kids[span.parent].append(i)
    return kids


def _archive_avoidable(spans: list[Span], kids: list[list[int]]) -> int:
    """Membership calls inside one search whose candidate an integer point
    already met in that search (an earlier candidate or MILP witness)
    dominates in criteria or in utility space."""
    from effset.model import criteria_image, dominates, utility_image

    avoidable = 0
    for i, span in enumerate(spans):
        if span.name != "branch_cut.run":
            continue
        seen: list[tuple[tuple, tuple]] = []
        for k in kids[i]:
            call = spans[k]
            if call.name != "efficiency.membership":
                continue
            inst, point = call.args
            images = (criteria_image(inst, point), utility_image(inst, point))
            if any(dominates(c, images[0]) or dominates(u, images[1]) for c, u in seen):
                avoidable += 1
            seen.append(images)
            witness = call.result.witness if call.result is not None else None
            if witness is not None:
                seen.append((criteria_image(inst, witness), utility_image(inst, witness)))
    return avoidable


def layer_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer counts and times of one traced pass over the operations,
    whose timed loop took `wall` seconds. `simplex.pivots_per_solve` counts
    both kinds of solve, LP and ratio (LFP). Layers that only the
    search uses are given as shares of `wall`: on a workload without the
    search they are exactly zero, which is no measured time."""
    calls = Counter(span.name for span in spans)
    self_s = defaultdict(float, self_times(spans))
    total_s: defaultdict = defaultdict(float)
    for span in spans:
        total_s[span.name] += span.total_s
    kids = _children(spans)

    node_lps = early_stops = t2_after_mm_reject = 0
    mm_s = t2_s = 0.0
    for i, span in enumerate(spans):
        if span.name == "milp.solve_milp":
            node_lps += sum(1 for k in kids[i] if spans[k].name == "simplex.solve_lp")
            early_stops += bool(span.result is not None and span.result.early_stop)
        elif span.name == "efficiency.membership":
            milps = [spans[k] for k in kids[i] if spans[k].name == "milp.solve_milp"]
            if milps:
                mm_s += milps[0].total_s
            if len(milps) > 1:
                t2_s += milps[1].total_s
                mm = milps[0].result
                if mm is not None and mm.value is not None and mm.value > 0:
                    t2_after_mm_reject += 1

    membership = calls["efficiency.membership"]
    solves = max(calls["simplex.solve_lp"] + calls["fractional.solve_lfp"], 1)
    avoidable = _archive_avoidable(spans, kids)
    return {
        "simplex.pivot.calls": calls["simplex.pivot"],
        "simplex.pivot.self_s": self_s["simplex.pivot"],
        "simplex.reduced.calls": calls["simplex.reduced"],
        "simplex.reduced.self_s": self_s["simplex.reduced"],
        "simplex.phase1.calls": calls["simplex.phase1"],
        "simplex.phase1.self_s": self_s["simplex.phase1"],
        "simplex.solve_lp.calls": calls["simplex.solve_lp"],
        "simplex.pivots_per_solve": calls["simplex.pivot"] / solves,
        "fractional.solve_lfp.calls": calls["fractional.solve_lfp"],
        "fractional.solve_lfp.share": total_s["fractional.solve_lfp"] / wall,
        "milp.solve_milp.calls": calls["milp.solve_milp"],
        "milp.node_lps": node_lps,
        "milp.node_lps_per_call": node_lps / max(calls["milp.solve_milp"], 1),
        "milp.early_stops": early_stops,
        "efficiency.membership.calls": membership,
        "efficiency.membership.total_s": total_s["efficiency.membership"],
        "efficiency.mm.total_s": mm_s,
        "efficiency.t2.total_s": t2_s,
        "efficiency.t2_after_mm_reject": t2_after_mm_reject,
        "branch_cut.archive_avoidable": avoidable,
        "branch_cut.archive_avoidable_ratio": avoidable / max(membership, 1),
        "branch_cut.run.self_share": self_s["branch_cut.run"] / wall,
        "branch_cut.cut_sets.self_share": self_s["branch_cut.cut_sets"] / wall,
        "validate.total_s": total_s["validate.validate_instance"],
        "trace.wall_s": wall,
        "trace.self_sum_share": root_seconds(spans) / wall,
    }


def root_seconds(spans: list[Span]) -> float:
    """Time covered by root spans; equals the sum of every span's self time."""
    return sum(span.total_s for span in spans if span.parent < 0)


def self_times(spans: list[Span]) -> dict[str, float]:
    totals: defaultdict = defaultdict(float)
    for span in spans:
        totals[span.name] += span.self_s
    return dict(totals)
