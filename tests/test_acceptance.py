"""Release gate: one test per shipping criterion.

Every test prints a single ``ACCEPTANCE n [...]: PASS/FAIL`` line (visible
with ``pytest -s``, or in the captured output of a failing test) so the whole
bar can be read off one log. Numeric claims are checked in exact rational
arithmetic; the only tolerances are the stated wall-clock budgets.
"""
from __future__ import annotations

import io
import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from effset.bench import (
    DETAIL_COLUMNS,
    SUMMARY_COLUMNS,
    run_benchmark,
    write_detail_csv,
    write_summary_csv,
)
from effset.branch_cut import run
from effset.cli import main as cli_main
from effset.efficiency import is_in_solution_set
from effset.fractional import fractional_gradient, solve_lfp, solve_lfp_cc
from effset.generator import GeneratorConfig, generate
from effset.instances import save
from effset.oracle import efficient_sets, enumerate_feasible
from effset.simplex import LESS_EQ, LinearRow

from conftest import DEMO_A, DEMO_B, build_demo


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} [{label}]: FAIL")
        raise
    print(f"ACCEPTANCE {num} [{label}]: PASS")


def constraint_rows(inst):
    return tuple(
        LinearRow.of({j: c for j, c in enumerate(row) if c}, LESS_EQ, rhs)
        for row, rhs in zip(inst.a_matrix, inst.b_vector)
    )


# Random-suite shape shared by criteria 3-5: every (vars, constraints,
# criteria) combination from {2,3}^3, 25 seeds each = 200 instances. With
# every constraint coefficient >= 3 and every right-hand side <= 20, each
# variable is capped at 20/3 < 7, so the integer domain has at most 7^3 = 343
# points regardless of seed.
SUITE_COMBOS = tuple(itertools.product((2, 3), repeat=3))
SUITE_SEEDS = 25
SUITE_RANGES = dict(b_range=(12, 20), a_range=(3, 5))


@pytest.fixture(scope="module")
def suite():
    out = []
    for n, m, k in SUITE_COMBOS:
        for seed in range(SUITE_SEEDS):
            cfg = GeneratorConfig(
                num_vars=n,
                num_constraints=m,
                num_criteria=k,
                seed=seed,
                **SUITE_RANGES,
            )
            out.append(generate(cfg))
    return out


def test_criterion_1_worked_example(tmp_path):
    """The two-variable example solves end to end, exactly, in under a second."""
    with criterion(1, "worked example end-to-end"):
        start = time.perf_counter()
        inst = build_demo()
        report = run(inst)
        x_e, _, _ = efficient_sets(inst)
        elapsed = time.perf_counter() - start

        assert report.solution_points() == {(4, 1), (1, 0), (0, 0)}
        assert set(x_e) == {(4, 1), (3, 0), (2, 0), (1, 0), (0, 0)}
        assert elapsed < 1.0, f"took {elapsed:.3f}s"

        path = tmp_path / "example.effset"
        save(inst, path)
        assert cli_main(["solve", str(path)]) == 0
        assert cli_main(["enumerate", str(path)]) == 0


def test_criterion_2_tableau_fixtures():
    """Root-node optimum, reduced gradients, and the recorded cut sets.

    All values are exact rationals computed by hand from the final tableau.
    Column indices are zero-based throughout: structural variables first,
    then one slack column per constraint row in creation order.
    """
    with criterion(2, "root tableau and cut sets"):
        inst = build_demo()
        result = solve_lfp(2, constraint_rows(inst), inst.utilities[0])
        assert result.point == (Fraction(32, 7), Fraction(8, 7))
        assert result.value == Fraction(-45, 79)

        state = result.state
        assert set(state.cols) == {2, 3}
        assert fractional_gradient(state, inst.utilities[0]) == {
            2: Fraction(-37, 7),
            3: Fraction(-24, 7),
        }
        assert fractional_gradient(state, inst.utilities[1]) == {
            2: Fraction(-80, 7),
            3: Fraction(5),
        }
        lambdas = [fractional_gradient(state, c) for c in inst.criteria]
        assert lambdas == [
            {2: Fraction(-2, 7), 3: Fraction(-4, 7)},
            {2: Fraction(1, 7), 3: Fraction(8, 7)},
            {2: Fraction(-1, 7), 3: Fraction(3, 7)},
        ]

        # Cut sets recorded on the search trace. At node 7 the second index
        # is column 9, the slack of the first round constraint appended at
        # node 6: by then the tableau holds 2 structural + 7 appended
        # columns, so that row's slack lands at index 9. The full
        # column-by-column derivation is in test_branch_cut.py
        # (TestDemoSearch.test_round_sets).
        by_node = {rec.node_id: rec for rec in run(inst).trace}
        assert (by_node[1].h, by_node[1].hprime) == (frozenset({4}), frozenset({4}))
        assert (by_node[4].h, by_node[4].hprime) == (frozenset({5, 6}), frozenset({5}))
        assert (by_node[7].h, by_node[7].hprime) == (frozenset({1, 9}), frozenset({1, 9}))


def test_criterion_3_oracle_equivalence(suite):
    """Search output equals the exhaustive intersection on 200 instances, and
    the zero-optimum membership programs agree with enumeration pointwise."""
    with criterion(3, "oracle equivalence on 200 random instances"):
        start = time.perf_counter()
        checked = 0
        for inst in suite:
            domain = enumerate_feasible(inst)
            assert len(domain) <= 500
            x_e, x_ep, inter = efficient_sets(inst)
            assert run(inst).solution_points() == set(inter)
            e_set, ep_set = set(x_e), set(x_ep)
            for pt in domain:
                verdict = is_in_solution_set(inst, pt)
                assert verdict.moilfp_efficient == (pt in e_set)
                assert verdict.boilfp_efficient == (pt in ep_set)
                checked += 1
        elapsed = time.perf_counter() - start

        assert len(suite) >= 200
        assert elapsed < 600.0, f"took {elapsed:.1f}s"
        print(f"  {len(suite)} instances, {checked} membership checks, {elapsed:.1f}s")


def test_criterion_4_lfp_cross_check(suite):
    """Pivot-based and transform-based ratio solvers agree exactly on every
    bounded objective of the random suite (at least 500 programs)."""
    with criterion(4, "dual-algorithm ratio-solver agreement"):
        agreements = 0
        for inst in suite:
            rows = constraint_rows(inst)
            n = len(inst.a_matrix[0])
            for objective in (*inst.criteria, *inst.utilities):
                direct = solve_lfp(n, rows, objective)
                value = solve_lfp_cc(n, rows, objective)
                assert direct is not None and value is not None
                assert direct.value == value
                agreements += 1
        assert agreements >= 500
        print(f"  {agreements} ratio programs, exact value agreement on all")


def test_criterion_5_walk_invariance(suite):
    """Traversal order and driving utility never change the solution set."""
    with criterion(5, "strategy/objective invariance"):
        for inst in suite:
            base = run(inst).solution_points()
            for strategy, objective in (("dfs", 1), ("bfs", 0), ("bfs", 1)):
                walked = run(inst, strategy=strategy, objective=objective)
                assert walked.solution_points() == base


def test_criterion_6_benchmark_shape():
    """Three-criteria benchmark at 10x5 and 10x10, ten seeds each, default
    coefficient ranges: every instance under 60 s of CPU, summary CSV with
    mean/max/min CPU and node counts per group, per-seed node counts reported
    alongside the exhaustive |D|, exact agreement with the exhaustive scan on
    every seed, and the paper's claim that the search finds the solution set
    without going through all the efficient solutions of the two problems.

    That claim is read as: some point of X_E | X_E' (criteria-efficient or
    utility-efficient, as the scan computes them) is never evaluated by the
    search, i.e. is never an integer node optimum on its trace. It must hold
    on at least 7 of 10 seeds at 10x10. The stricter reading, that neither
    set is fully evaluated, is not checked. The search makes no wall-clock
    promise against the scan; its win count is printed, not asserted."""
    with criterion(6, "scaled benchmark"):
        records = run_benchmark([(3, 10, 5), (3, 10, 10)], seeds=10)

        slow = [(rec.m, rec.n, rec.seed, rec.cpu) for rec in records if rec.cpu >= 60.0]
        assert not slow, f"instances over the 60s bar: {slow}"

        summary = io.StringIO()
        write_summary_csv(records, summary)
        lines = summary.getvalue().strip().splitlines()
        assert lines[0].split(",") == list(SUMMARY_COLUMNS)
        assert len(lines) == 1 + 2  # header plus one row per group

        detail = io.StringIO()
        write_detail_csv(records, detail)
        header = detail.getvalue().splitlines()[0].split(",")
        assert header == list(DETAIL_COLUMNS)
        assert "nodes" in header and "oracle_feasible" in header
        for rec in records:
            assert rec.oracle_feasible is not None  # scan ran on every seed
            assert rec.agreed is True

        tens = [rec for rec in records if (rec.m, rec.n) == (10, 10)]
        assert len(tens) == 10
        partial = [rec.seed for rec in tens if rec.efficient_unvisited > 0]
        wins = sum(1 for rec in tens if rec.win)
        cpus = [rec.cpu for rec in tens]
        scans = [rec.oracle_cpu for rec in tens]
        sizes = [rec.oracle_feasible for rec in tens]
        nodes = [rec.nodes for rec in tens]
        unvisited = [rec.efficient_unvisited for rec in tens]
        print(
            f"  10x10: X_E | X_E' left partly unevaluated on {len(partial)}/10 "
            f"seeds (unvisited per seed {unvisited}); wall-clock wins {wins}/10, "
            f"search {min(cpus):.2f}-{max(cpus):.2f}s over "
            f"{min(nodes)}-{max(nodes)} nodes; exhaustive scan "
            f"{min(scans):.3f}-{max(scans):.3f}s over |D| {min(sizes)}-{max(sizes)}"
        )
        assert len(partial) >= 7, (
            f"seeds at 10x10 where the search left some point of X_E | X_E' "
            f"unevaluated: {len(partial)}/10 (need >= 7); unvisited points per "
            f"seed {unvisited}, evaluated points per seed "
            f"{[rec.evaluated for rec in tens]}. Every seed agreed with the scan "
            f"on the solution set, but on the others the search evaluated every "
            f"criteria-efficient and every utility-efficient point on the way."
        )
