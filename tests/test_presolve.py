"""The presolve (`simplex.presolve`): the rows it marks implied are exactly
those whose maximum over the region of all the rows is strictly below
their right-hand side, a tableau writes no row for them, and the region
stays as it is."""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effset.errors import InvariantViolated
from effset.model import constraint_rows, instance, is_feasible, ratio
from effset.simplex import (
    GREATER_EQ,
    LESS_EQ,
    LinearProgram,
    LinearRow,
    feasible_tableau,
    presolve,
    solve_lp,
)

from conftest import UNBOUNDED, outcome


@st.composite
def tiny_systems(draw):
    """n, m <= 3, coefficients in -3..3 with zeros, right-hand sides of
    either sign, and rows that repeat an earlier row: empty, unbounded and
    single-point relaxations all occur, and so do weakly and strictly
    redundant rows."""
    n = draw(st.integers(1, 3))
    a, b = [], []
    for _ in range(draw(st.integers(1, 3))):
        if a and draw(st.booleans()):
            k = draw(st.integers(0, len(a) - 1))
            a.append(list(a[k]))
            b.append(b[k])
        else:
            a.append([draw(st.integers(-3, 3)) for _ in range(n)])
            b.append(draw(st.integers(-3, 6)))
    return n, a, b


@settings(max_examples=300, deadline=None)
@given(tiny_systems())
def test_marks_exactly_the_strictly_slack_rows(system):
    """Over a nonempty region, a row is marked exactly when its maximum
    over all the rows, each solved from scratch, is below its right-hand
    side (a maximum is always attained: the row bounds itself). Over an
    empty region nothing is marked."""
    n, a, b = system
    rows = constraint_rows(a, b)
    marked = presolve(n, rows)
    assert marked == rows
    if solve_lp(LinearProgram.of(n, {}, rows)) is None:
        assert not any(row.implied for row in marked)
        return
    for row, mark in zip(rows, marked):
        state = solve_lp(LinearProgram.of(n, dict(row.coeffs), rows))
        top = sum(c * state.structural_point(n)[j] for j, c in row.coeffs)
        assert mark.implied == (top < row.rhs)


@settings(max_examples=200, deadline=None)
@given(tiny_systems(), st.integers(0, 2))
def test_the_region_stays_as_it_is(system, j):
    """Each variable's maximum over the marked rows equals its maximum over
    all of them (none, unbounded or the same value), and `is_feasible`, which skips the
    marked rows, keeps exactly the box points that satisfy every row."""
    n, a, b = system
    j %= n
    rows = constraint_rows(a, b)
    marked = presolve(n, rows)
    full = outcome(solve_lp, LinearProgram.of(n, {j: 1}, rows))
    kept = outcome(solve_lp, LinearProgram.of(n, {j: 1}, marked))
    if full is None or full is UNBOUNDED:
        assert kept is full
    else:
        assert kept.structural_point(n)[j] == full.structural_point(n)[j]
    objectives = [ratio([0] * n, 1, [0] * n, 1)] * 2
    inst = instance(a, b, objectives, objectives)
    assert [row.implied for row in inst.rows] == [row.implied for row in marked]
    for point in itertools.product(range(4), repeat=n):
        every_row = all(
            sum(c * point[k] for k, c in row.coeffs) <= row.rhs for row in rows
        )
        assert is_feasible(inst, point) == every_row


def test_nothing_is_marked_over_an_empty_region():
    # x0 <= 1 implies x0 <= 2 strictly, but x0 >= 3 empties the region.
    rows = constraint_rows([[1], [1], [-1]], [1, 2, -3])
    assert [row.implied for row in presolve(1, rows)] == [False, False, False]


def test_duplicates_and_weakly_redundant_rows_are_kept():
    # x0 <= 2 twice, x0 + x1 <= 4 (tight at (2, 2)), x1 <= 2, and x0 + x1 <= 5.
    rows = constraint_rows([[1, 0], [1, 0], [1, 1], [0, 1], [1, 1]], [2, 2, 4, 2, 5])
    assert [row.implied for row in presolve(2, rows)] == [False, False, False, False, True]


def test_a_tableau_reserves_the_column_of_an_implied_row():
    """x0 <= 5 is implied by x0 <= 2: its slack x2 keeps its column number,
    so a later row's slack is x3, but no tableau holds x2."""
    rows = presolve(2, constraint_rows([[1, 0], [1, 0], [0, 1]], [2, 5, 3]))
    assert [row.implied for row in rows] == [False, True, False]
    state = solve_lp(LinearProgram.of(2, {0: 1, 1: 1}, rows))
    assert state.num_vars == 5
    assert 3 not in state.basis and 3 not in state.cols
    assert state.structural_point(2) == (2, 3)
    extended = feasible_tableau(2, (*rows, LinearRow(((0, 1), (1, 1)), LESS_EQ, 4)))
    assert extended.ncols == 6 and 5 in extended.basis


def test_a_row_over_an_implied_rows_slack_is_refused():
    """A row may name an earlier row's slack, but not that of a row no
    tableau holds: a typed error, not a KeyError."""
    rows = presolve(1, constraint_rows([[1], [1]], [2, 5]))
    assert [row.implied for row in rows] == [False, True]
    assert feasible_tableau(1, (*rows, LinearRow(((1, 1),), GREATER_EQ, 1))) is not None
    with pytest.raises(InvariantViolated, match="implied row"):
        feasible_tableau(1, (*rows, LinearRow(((2, 1),), GREATER_EQ, 1)))


def test_an_objective_over_an_implied_rows_slack_is_refused():
    """No tableau holds an implied row's slack, so a cost on it would never
    be priced: the program over x0 + x1 <= 100, which 2 x0 <= 5 and
    2 x1 <= 7 imply, refuses a cost on that row's slack, and builds with
    the rows unmarked or with a zero cost there."""
    rows = constraint_rows([[1, 1], [2, 0], [0, 2]], [100, 5, 7])
    marked = presolve(2, rows)
    assert [row.implied for row in marked] == [True, False, False]
    with pytest.raises(ValueError, match="implied row"):
        LinearProgram.of(2, {2: 1}, marked)
    assert LinearProgram.of(2, {2: 1}, rows).cost == (0, 0, 1)
    assert LinearProgram.of(2, {2: 0}, marked).cost == (0, 0, 0)
