"""Tests for the benchmark itself, on the README worked example.

    python3 -m pytest effbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as effbench  # noqa: E402

effbench.import_effset()

import tracing  # noqa: E402
from effset import branch_cut, efficiency, milp, simplex  # noqa: E402
from effset.model import instance, ratio  # noqa: E402

DEMO_SOLUTION_SET = {(4, 1), (1, 0), (0, 0)}


def demo():
    return instance(
        a=[[-1, 4], [2, -1]],
        b=[0, 8],
        criteria=[
            ratio([1, 0], -4, [0, -1], 2),
            ratio([-1, 0], 4, [0, 1], 1),
            ratio([-1, 1], 0, [0, 0], 1),
        ],
        utilities=[ratio([-1, 1], -3, [2, 1], 1), ratio([-4, 3], 1, [2, 1], 2)],
    )


def bindings():
    """Every name in the loaded effset package, by identity of its value."""
    names = {
        (modname, attr): value
        for modname, module in sys.modules.items()
        if modname == "effset" or modname.startswith("effset.")
        for attr, value in vars(module).items()
    }
    for method in ("pivot", "reduced"):
        names[("Tableau", method)] = vars(simplex.Tableau)[method]
    return names


def traced_demo():
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        report = branch_cut.run(demo())
    return tracer, report


def test_instrument_rebinds_imported_names_and_restores_them():
    before = bindings()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.instrument(tracer):
            assert milp.solve_lp is not before[("effset.simplex", "solve_lp")]
            assert milp.solve_lp.__wrapped__ is before[("effset.simplex", "solve_lp")]
            assert branch_cut.solve_lfp.__wrapped__ is before[("effset.fractional", "solve_lfp")]
            assert efficiency.solve_milp.__wrapped__ is before[("effset.milp", "solve_milp")]
            assert vars(simplex.Tableau)["pivot"] is not before[("Tableau", "pivot")]
            raise RuntimeError("leave the block early")
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_and_untraced_runs_agree_on_the_worked_example():
    plain = branch_cut.run(demo())
    _, traced = traced_demo()
    for report in (plain, traced):
        assert report.solution_points() == DEMO_SOLUTION_SET
        assert report.nodes_processed == 10
    assert [r.action for r in traced.trace] == [r.action for r in plain.trace]


def test_span_tree_nests_solve_lp_under_solve_milp_under_membership():
    tracer, _ = traced_demo()
    spans = tracer.spans
    chains = set()
    for span in spans:
        if span.name == "simplex.solve_lp" and span.parent >= 0:
            milp_span = spans[span.parent]
            if milp_span.name == "milp.solve_milp" and milp_span.parent >= 0:
                chains.add((spans[milp_span.parent].name, spans[spans[milp_span.parent].parent].name))
    assert ("efficiency.membership", "branch_cut.run") in chains

    for i, span in enumerate(spans):
        if span.name == "efficiency.membership":
            kids = [s.name for s in spans if s.parent == i]
            assert kids == ["milp.solve_milp", "milp.solve_milp"]  # mm, then t2
        assert span.self_s >= 0
    assert sum(s.self_s for s in spans) == pytest.approx(tracing.root_seconds(spans))


def test_layer_counts_repeat_and_cover_the_search():
    counts = []
    for _ in range(2):
        tracer, report = traced_demo()
        metrics = tracing.layer_metrics(tracer.spans, tracing.root_seconds(tracer.spans))
        metrics.update(effbench.search_counts([report]))
        counts.append({k: metrics[k] for k in effbench.REPEATING_COUNTS})
    assert counts[0] == counts[1]
    first = counts[0]
    assert first["branch_cut.nodes"] == 10
    assert first["fractional.solve_lfp.calls"] == 10
    assert first["efficiency.membership.calls"] > 0
    assert first["milp.solve_milp.calls"] == 2 * first["efficiency.membership.calls"] + 1  # +1: validation
    assert first["simplex.pivot.calls"] > 0
    assert first["efficiency.t2_after_mm_reject"] <= first["efficiency.membership.calls"]
    assert first["branch_cut.archive_avoidable"] <= first["efficiency.membership.calls"]


def test_a_pass_runs_each_operation_once_and_its_spans_cover_the_loop():
    case = effbench.Case(0, demo(), "", frozenset(), frozenset(), frozenset(DEMO_SOLUTION_SET), ())
    ops = [(case, None)] * 3
    p, metrics, _ = effbench.traced_pass(ops)
    assert len(p.latencies) == len(p.scaled) == 3 and p.failures == []
    assert metrics["branch_cut.nodes"] == 30
    assert effbench.MIN_SELF_SUM_SHARE <= metrics["trace.self_sum_share"] <= 1


def test_check_flags_wrong_answers():
    inst = demo()
    case = effbench.Case(0, inst, "", frozenset(), frozenset(), frozenset({(4, 1)}), ())
    report = branch_cut.run(inst)
    assert effbench.verify(case, None, report) is not None
    right = effbench.Case(
        0, inst, "", frozenset({(4, 1)}), frozenset({(4, 1)}), frozenset({(4, 1)}), ()
    )
    assert effbench.verify(right, (4, 1), efficiency.is_in_solution_set(inst, (4, 1))) is None
    assert effbench.verify(case, (4, 1), efficiency.is_in_solution_set(inst, (4, 1))) is not None


def test_pins_hold_for_the_default_seed():
    assert effbench.check_pins() == []


def test_without_the_sources_the_benchmark_exits_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        [sys.executable, *command[1:], "--workload", "search-3x10x5", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
