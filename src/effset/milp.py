"""Branch-and-bound for integer linear programs, exact arithmetic.

Branching is Dakin's dichotomy (Land & Doig 1960; Dakin 1965) on the
first structural variable with a fractional value, x_j <= floor or
x_j >= floor + 1. `branch_rows` reads it in integers off a node's state,
and the search (`branch_cut.run`) branches by it too, so both
branch-and-bounds of the method share one rule.

Every structural variable is integer; the slack and surplus columns the
rows add are not. The one question `solve_milp` answers is whether some
integer point is worth more than a bound, `above`: it dives depth-first,
floor child first, prunes every node whose relaxation value is at most
`above`, and returns the first integer point it meets above it, or None
once the dive has proved there is none. Membership asks with above 0,
the candidate's own value; the instance check with above -1 over a zero
objective, so any integer point answers it. Deterministic by
construction.

Only the root relaxation is solved from scratch (`simplex.solve_lp`). A
child is its parent's system plus one branch row, x_j <= floor or
x_j >= floor + 1, and is solved from its parent's final `SimplexState` by
`simplex.resolve_after`, the warm path every search child takes too. The
branch row cuts off the parent's vertex: its slack starts basic at a
negative value, the extended basis stays dual feasible for the objective,
and dual simplex pivots reach the child's optimum or prove it
infeasible; the returned tableau's state is the child's. The program
keeps its integer cost (`LinearProgram.cost`), which the root
prices; its reduced row rides in each node's state, and every child
re-solves on its parent's. A stack entry is (parent state, branch row), so
no child's program is built. An appended slack belongs to its row as
written, as in a from-scratch solve, so a child's system is its extended
program's.

A node is read in integers: its value times det and the objective's
scale is the carried objective row's last entry, negated, and its point
is read off its state (`SimplexState.vertex`, det times the point), whose
entries // det are the floor of the point, the point itself at an
integral node. Only a returned value is built as a `Fraction`.

Each fractional node that survives bounding also tries simple rounding
(Achterberg 2007, ch. 9; Berthold 2006), before its children are pushed:
`rounded_down` reads y = floor of its vertex, checks y exactly against
the program's rows a tableau holds (not the node's branch rows) and
prices it, slack columns included. A feasible y above the bound ends the
dive as an integral node above it does, so a membership MILP can stop at
a dominating point several nodes before the floor-first dive reaches
one. A point at or below the bound is dropped.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .model import row_gaps
from .simplex import (
    GREATER_EQ,
    LESS_EQ,
    LinearProgram,
    LinearRow,
    SimplexState,
    resolve_after,
    solve_lp,
)


@dataclass(frozen=True)
class MilpResult:
    """The first integer point (ints) the dive met above the bound, with
    its exact value. A returned point always ends the dive: early_stop is
    a constant, for readers that count stopped dives."""

    point: tuple[int, ...]
    value: Fraction
    early_stop = True


def branch_rows(state: SimplexState, n: int) -> tuple[LinearRow, LinearRow] | None:
    """Dakin's branch at an optimal state over n structural variables: the
    rows x_j <= floor and x_j >= floor + 1 on the first x_j whose value,
    its `vertex` entry over det, is fractional, floor being that entry //
    det; None at an integer vertex."""
    det = state.det
    for j, v in enumerate(state.vertex(n)):
        if v % det:
            lo, unit = v // det, ((j, 1),)
            return LinearRow(unit, LESS_EQ, lo), LinearRow(unit, GREATER_EQ, lo + 1)
    return None


def rounded_down(
    program: LinearProgram, state: SimplexState
) -> tuple[tuple[int, ...], Fraction] | None:
    """Simple rounding at a node: y = floor of the state's point (`vertex`
    // det), with its exact objective value, slack columns included, when y
    satisfies every row a tableau holds (`LinearProgram.dense_rows`), which
    with y >= 0 imply the rest. None when y violates a row, or when some
    row names a slack column, whose value at y the program does not fix."""
    rows = program.dense_rows
    if rows is None:
        return None
    n, cost, det = program.num_vars, program.cost, state.det
    y = tuple([v // det for v in state.vertex(n)])
    if row_gaps(rows, y) is None:
        return None
    # Row i's slack is its gap over its scale; cost is scale times the objective.
    num, den = sum(map(mul, cost, y)), 1
    for c, row in zip(cost[n:], program.rows):
        a, h = row.dense
        if c and (gap := h - sum(map(mul, a, y))):
            num, den = num * row.scale + c * gap * den, den * row.scale
    return y, Fraction(num, den * program.scale)


def _relaxation(
    program: LinearProgram, parent: SimplexState | None, row: LinearRow | None
) -> SimplexState | None:
    """A node's optimal LP state, or None when its LP is infeasible: the
    root (no parent) from scratch (`solve_lp`, which raises
    UnboundedDomain on an unbounded root), a child from its parent's final
    state plus its branch row, on the parent's carried objective row."""
    if parent is None:
        return solve_lp(program)
    tab = resolve_after(parent, (row,))
    return None if tab is None else tab.state()


def solve_milp(program: LinearProgram, above: Fraction | int) -> MilpResult | None:
    """The first integer point of the program's rows, in the floor-first
    dive, whose value exceeds `above`, or None when there is none."""
    n, scale = program.num_vars, program.scale
    # A node to solve: its parent's final state (None at the root) and the
    # branch row it appends to the parent's system.
    stack: list[tuple[SimplexState | None, LinearRow | None]] = [(None, None)]
    while stack:
        parent, row = stack.pop()
        state = _relaxation(program, parent, row)
        if state is None:
            continue

        det = state.det
        # det * scale * value, negated, ends the carried objective row.
        scaled = -state.costs[0][-1]
        if scaled * above.denominator <= above.numerator * det * scale:
            continue

        # An integral node is a point above the bound; a fractional one
        # offers its rounded-down vertex when that is feasible.
        rows = branch_rows(state, n)
        if rows is None:
            point = tuple([v // det for v in state.vertex(n)])
            return MilpResult(point, Fraction(scaled, det * scale))
        found = rounded_down(program, state)
        if found is not None and found[1] > above:
            return MilpResult(*found)

        floor_row, ceil_row = rows
        stack.append((state, ceil_row))
        stack.append((state, floor_row))
    return None
