import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effset import milp as milp_module
from effset import simplex
from effset.efficiency import _membership_program, is_in_solution_set
from effset.errors import UnboundedDomain
from effset.generator import GeneratorConfig, generate
from effset.milp import MilpResult, branch_rows, rounded_down, solve_milp
from effset.model import row_gaps
from effset.oracle import enumerate_feasible
from effset.simplex import GREATER_EQ, LESS_EQ, LinearProgram, LinearRow, SimplexState

from conftest import assert_dakin_rows, assert_vertex_read, count_calls


def milp(num_vars, objective, rows):
    return LinearProgram.of(
        num_vars,
        objective,
        [LinearRow.of(c, rel, rhs) for c, rel, rhs in rows],
    )


def test_knapsack():
    # max 5a + 4b + 3c  s.t.  2a + 3b + c <= 5, binaries: 9 at (1, 1, 0).
    problem = milp(
        3,
        {0: 5, 1: 4, 2: 3},
        [
            ({0: 2, 1: 3, 2: 1}, LESS_EQ, 5),
            ({0: 1}, LESS_EQ, 1),
            ({1: 1}, LESS_EQ, 1),
            ({2: 1}, LESS_EQ, 1),
        ],
    )
    assert solve_milp(problem, 8) == MilpResult((1, 1, 0), Fraction(9))
    assert solve_milp(problem, 9) is None


def test_slack_columns_are_not_integer():
    # x0 <= 5/2: the root vertex rounds down to x0 = 2, whose row slack is
    # 1/2. An integer slack would need a half-integer x0, leaving no point.
    result = solve_milp(milp(1, {0: 1}, [({0: 1}, LESS_EQ, Fraction(5, 2))]), 1)
    assert result == MilpResult((2,), Fraction(2))


def test_infeasible():
    problem = milp(1, {0: 1}, [({0: 1}, GREATER_EQ, 2), ({0: 1}, LESS_EQ, 1)])
    assert solve_milp(problem, -1) is None


def test_integer_gap_infeasible():
    # 1/3 <= x <= 2/3 has rational points but no integral one.
    problem = milp(
        1,
        {0: 1},
        [({0: 3}, GREATER_EQ, 1), ({0: 3}, LESS_EQ, 2)],
    )
    assert solve_milp(problem, -1) is None


def test_unbounded_relaxation_raises():
    problem = milp(2, {0: 1}, [({1: 1}, LESS_EQ, 1)])
    with pytest.raises(UnboundedDomain):
        solve_milp(problem, 0)


def test_cutoff_early_stop():
    """The first point above the bound ends the dive, whatever its margin.
    Over x0 + 2 x1 <= 3 the root vertex (0, 3/2) rounds down to (0, 1),
    worth 3, which answers the bound 0 though (1, 1) is worth 4; above 3
    only (1, 1) answers, and above 4 nothing does."""
    problem = milp(2, {0: 1, 1: 3}, [({0: 1, 1: 2}, LESS_EQ, 3)])
    eager = solve_milp(problem, 0)
    assert eager == MilpResult((0, 1), Fraction(3)) and eager.early_stop
    assert solve_milp(problem, 3) == MilpResult((1, 1), Fraction(4))
    assert solve_milp(problem, 4) is None


def test_a_bound_at_the_maximum_prunes_the_root(monkeypatch):
    """A bound at the maximum, as a known point's value, prunes the root,
    whose relaxation value is that maximum, and no child is solved; a
    bound below it is beaten."""
    problem = milp(
        2,
        {0: 1, 1: 1},
        [({0: 1}, LESS_EQ, 2), ({1: 1}, LESS_EQ, 2)],
    )
    from_scratch = count_calls(monkeypatch, simplex.solve_lp)
    from_parent = count_calls(monkeypatch, simplex.resolve_after)
    assert solve_milp(problem, 4) is None
    assert (from_scratch["milp"], from_parent["milp"]) == (1, 0)
    assert solve_milp(problem, Fraction(7, 2)) == MilpResult((2, 2), Fraction(4))


def _assert_lattice_answer(program, fits, value_of, values, above):
    """solve_milp's answer above `above` against the sorted values of the
    lattice points that fit: None exactly when none is above it, and
    otherwise an int point that satisfies every row, whose value is that
    point's and above the bound."""
    result = solve_milp(program, above)
    if not values or values[-1] <= above:
        assert result is None
        return
    assert type(result.point) is tuple and all(type(v) is int for v in result.point)
    assert fits(result.point)
    assert value_of(result.point) == result.value > above


def _assert_bound_queries(program, fits, value_of, values):
    """Bounds just below, at and above the lattice maximum: just below it
    (at the next lower lattice value) only a point of the maximum answers,
    at and above it none does. An empty lattice answers no bound."""
    if not values:
        _assert_lattice_answer(program, fits, value_of, values, Fraction(-(10**6)))
        return
    top = values[-1]
    below = values[-2] if len(values) > 1 else top - 1
    assert solve_milp(program, below).value == top
    for above in (below, top, top + 1):
        _assert_lattice_answer(program, fits, value_of, values, above)


def _lattice_case(rows, objective, bound):
    """max objective . x over the integer points of [0, bound]^2 under the
    rows a x0 + b x1 <= r: (program, fits, value_of, sorted distinct values
    of the lattice points that fit)."""
    all_rows = [({0: 1}, LESS_EQ, bound), ({1: 1}, LESS_EQ, bound)]
    all_rows += [({0: a, 1: b}, LESS_EQ, r) for a, b, r in rows]
    problem = milp(2, {0: objective[0], 1: objective[1]}, all_rows)

    def fits(p):
        rows_hold = all(c.get(0, 0) * p[0] + c.get(1, 0) * p[1] <= rhs for c, _, rhs in all_rows)
        return min(p) >= 0 and rows_hold

    def value_of(p):
        return objective[0] * p[0] + objective[1] * p[1]

    points = [p for p in itertools.product(range(bound + 1), repeat=2) if fits(p)]
    return problem, fits, value_of, sorted(set(map(value_of, points)))


_lattice_rows = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-5, 25)),
    min_size=0,
    max_size=3,
)
_lattice_objective = st.tuples(st.integers(-5, 5), st.integers(-5, 5))


@settings(max_examples=60, deadline=None)
@given(rows=_lattice_rows, objective=_lattice_objective, bound=st.integers(1, 7))
def test_matches_lattice_enumeration(rows, objective, bound):
    _assert_bound_queries(*_lattice_case(rows, objective, bound))


@settings(max_examples=60, deadline=None)
@given(
    rows=_lattice_rows,
    objective=_lattice_objective,
    bound=st.integers(1, 7),
    above=st.integers(-20, 40),
)
def test_a_cutoff_stops_at_a_feasible_point_above_it(rows, objective, bound, above):
    _assert_lattice_answer(*_lattice_case(rows, objective, bound), above)


_frac = st.fractions(-4, 4, max_denominator=6)


def _membership_case(levels, rows, objective, bound):
    """A membership-shaped program over three integer variables y, as
    efficiency._membership_program builds it: a c . y >= r row per level,
    whose surplus the objective prices (the surplus of level i is column
    3 + i), then a bound row per variable and fractional <= rows. Its
    points are the lattice points y whose surpluses are >= 0; a child
    appends an integer branch row to a tableau scaled from the fractional
    rows. (program, fits, value_of, sorted distinct values of the lattice
    points that fit)."""
    k = len(levels)
    bounds = [LinearRow.of({j: 1}, LESS_EQ, bound) for j in range(3)]
    bounds += [LinearRow.of(c, LESS_EQ, r) for c, r in rows]
    surplus_rows = [LinearRow.of(c, GREATER_EQ, r) for c, r in levels]
    program = LinearProgram.of(3, objective[: 3 + k], surplus_rows + bounds)

    def surplus(y):
        return [sum(a * v for a, v in zip(c, y)) - r for c, r in levels]

    def fits(y):
        in_box = len(y) == 3 and all(0 <= v <= bound for v in y)
        under = all(sum(a * v for a, v in zip(c, y)) <= r for c, r in rows)
        return in_box and under and min(surplus(y)) >= 0

    def value_of(y):
        scaled = sum(c * v for c, v in zip(program.cost, (*y, *surplus(y))))
        return Fraction(scaled, program.scale)

    points = [y for y in itertools.product(range(bound + 1), repeat=3) if fits(y)]
    return program, fits, value_of, sorted(set(map(value_of, points)))


_levels = st.lists(st.tuples(st.tuples(_frac, _frac, _frac), _frac), min_size=1, max_size=2)
_fractional_rows = st.lists(
    st.tuples(st.tuples(_frac, _frac, _frac), st.fractions(-2, 12, max_denominator=4)),
    max_size=2,
)
_membership_objective = st.tuples(*[st.fractions(-3, 3, max_denominator=4)] * 5)


@settings(max_examples=80, deadline=None)
@given(
    levels=_levels,
    rows=_fractional_rows,
    objective=_membership_objective,
    bound=st.integers(1, 5),
)
def test_membership_shaped_programs_match_lattice_enumeration(levels, rows, objective, bound):
    _assert_bound_queries(*_membership_case(levels, rows, objective, bound))


@settings(max_examples=80, deadline=None)
@given(
    levels=_levels,
    rows=_fractional_rows,
    objective=_membership_objective,
    bound=st.integers(1, 5),
    above=st.fractions(-10, 10, max_denominator=4),
)
def test_membership_shaped_cutoffs_stop_at_a_feasible_point_above_them(
    levels, rows, objective, bound, above
):
    _assert_lattice_answer(*_membership_case(levels, rows, objective, bound), above)


def test_a_root_vertex_that_rounds_down_to_a_better_point_ends_the_search(monkeypatch):
    """The root's vertex (5/2, 0) rounds down to (2, 0), which satisfies
    every row and is above the bound 0, so it is returned after the root
    LP alone; the floor-first dive would solve two children to reach it.
    Above 2, the rounded point is dropped and the dive goes on."""
    problem = milp(2, {0: 1, 1: 1}, [({0: 2, 1: 2}, LESS_EQ, 5)])
    assert simplex.solve_lp(problem).structural_point(2) == (Fraction(5, 2), 0)
    from_scratch = count_calls(monkeypatch, simplex.solve_lp)
    from_parent = count_calls(monkeypatch, simplex.resolve_after)
    assert solve_milp(problem, 0) == MilpResult((2, 0), Fraction(2))
    assert (from_scratch["milp"], from_parent["milp"]) == (1, 0)
    assert solve_milp(problem, 2) is None
    assert from_parent["milp"] > 0


def test_rounded_down_reads_priced_slacks_and_checks_every_row():
    """The rounded-down vertex's value counts each priced slack at its
    exact value; a point that violates a row, or a program with a row over
    a slack column, gives None."""
    # x0 <= 5/2, priced at 1 with its slack at 1/3: y = (2,), slack 1/2.
    program = milp(1, {0: 1, 1: Fraction(1, 3)}, [({0: 1}, LESS_EQ, Fraction(5, 2))])
    assert rounded_down(program, simplex.solve_lp(program)) == ((2,), Fraction(13, 6))
    # Minimizing x0 over 2 x0 >= 1: the vertex x0 = 1/2 rounds down to 0,
    # which violates the row.
    lowest = milp(1, {0: -1}, [({0: 2}, GREATER_EQ, 1)])
    assert rounded_down(lowest, simplex.solve_lp(lowest)) is None
    # x1 <= 1 over x0's slack x1: x0 <= 5/2 and 5/2 - x0 <= 1.
    over_slack = milp(1, {0: 1}, [({0: 1}, LESS_EQ, Fraction(5, 2)), ({1: 1}, LESS_EQ, 1)])
    assert rounded_down(over_slack, simplex.solve_lp(over_slack)) is None


@pytest.mark.parametrize("level, expected", [(1, ((2, 3), Fraction(22, 3))), (6, None)])
def test_rounded_down_skips_implied_rows_and_prices_each_slack_by_its_row(level, expected):
    """The presolve marks x0 + x1 <= 100, which 2 x0 <= 5 and 2 x1 <= 7
    imply, and the rows priced after it are priced by their own index:
    rounding the vertex (5/2, 7/2) gives what a check of every row and a
    pricing of every slack give. Under x0 + x1 >= 6, y = (2, 3) violates
    the level row."""
    box = [({0: 1, 1: 1}, LESS_EQ, 100), ({0: 2}, LESS_EQ, 5), ({1: 2}, LESS_EQ, 7)]
    rows = simplex.presolve(2, [LinearRow.of(c, rel, rhs) for c, rel, rhs in box])
    assert [row.implied for row in rows] == [True, False, False]
    level_row = LinearRow.of({0: 1, 1: 1}, GREATER_EQ, level)
    objective = {0: 1, 1: 1, 3: Fraction(1, 3), 5: Fraction(1, 2)}
    program = LinearProgram.of(2, objective, (*rows, level_row))
    assert program.dense_rows == tuple(row.dense for row in program.rows[1:])
    state = simplex.solve_lp(program)
    assert state.structural_point(2) == (Fraction(5, 2), Fraction(7, 2))

    y = tuple(math.floor(v) for v in state.structural_point(2))
    gaps = row_gaps([row.dense for row in program.rows], y)
    every_row = None
    if gaps is not None:
        slacks = [Fraction(g, row.scale) for g, row in zip(gaps, program.rows)]
        value = sum(c * v for c, v in zip(program.cost, (*y, *slacks)))
        every_row = y, Fraction(value, program.scale)
    assert rounded_down(program, state) == every_row == expected


def test_only_the_root_is_solved_from_scratch(monkeypatch):
    """Each MILP solves its root LP from scratch and every other node from
    its parent's final state, by a dual re-solve."""
    inst = generate(GeneratorConfig(num_vars=5, num_constraints=10, num_criteria=3, seed=0))
    programs = [_membership_program(inst, point, inst.criteria) for point in enumerate_feasible(inst)]
    from_scratch = count_calls(monkeypatch, simplex.solve_lp)
    from_parent = count_calls(monkeypatch, simplex.resolve_after)
    children = 0
    for program in programs:
        solve_milp(program, 0)
        assert from_scratch["milp"] == 1
        children += from_parent["milp"]
        from_scratch.clear()
        from_parent.clear()
    assert children > 0


def test_branch_rows_on_the_smallest_fractional_structural_variable():
    """Dakin's branch on the smallest structural variable with a fractional
    value, whatever its row, and none at an integer vertex; a basic slack's
    value is never read. Only the basis, the right-hand sides and det are."""
    # x3 = 5/6 (a slack), x2 = 7/3, x1 = 1/2, x0 = 3
    state = SimplexState(5, (3, 2, 1, 0), ([1, 5], [1, 14], [1, 3], [1, 18]), 6, (4,))
    assert branch_rows(state, 3) == (
        LinearRow.of({1: 1}, LESS_EQ, 0),
        LinearRow.of({1: 1}, GREATER_EQ, 1),
    )
    # x3 = 3/2 (a slack), x1 = 0, x0 = 2
    state = SimplexState(5, (3, 1, 0), ([1, 1, 3], [1, 1, 0], [1, 1, 4]), 2, (2, 4))
    assert branch_rows(state, 3) is None


def test_branch_rows_on_every_membership_milp_node(monkeypatch):
    """On each feasible node state of the membership MILPs (every feasible
    point of 3x10x5 seeds 0-9), the shared branching rule returns None
    exactly at an integral point, and otherwise the rows on the first
    fractional coordinate and its floor; the point read off the state is
    its Fraction point, and a rounded-down point is its floor."""
    states = []
    relaxation = milp_module._relaxation

    def recorded(program, parent, row):
        state = relaxation(program, parent, row)
        if state is not None:
            states.append((state, program))
        return state

    monkeypatch.setattr(milp_module, "_relaxation", recorded)
    for seed in range(10):
        inst = generate(GeneratorConfig(num_vars=5, num_constraints=10, num_criteria=3, seed=seed))
        for point in enumerate_feasible(inst):
            is_in_solution_set(inst, point)
    rows = [branch_rows(state, program.num_vars) for state, program in states]
    rounded = 0
    for (state, program), branch in zip(states, rows):
        n = program.num_vars
        assert_dakin_rows(state, n, branch)
        assert_vertex_read(state, n)
        found = rounded_down(program, state)
        if found is not None:
            rounded += 1
            assert found[0] == tuple(math.floor(v) for v in state.structural_point(n))
    assert None in rows and any(rows) and rounded
