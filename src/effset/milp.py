"""Branch-and-bound for integer linear programs, exact arithmetic.

Branching is Dakin's dichotomy (Land & Doig 1960; Dakin 1965) on the
first structural variable with a fractional value, x_j <= floor or
x_j >= floor + 1. `branch_rows` reads it in integers off a node's state,
and the search (`branch_cut.run`) branches by it too, so both
branch-and-bounds of the method share one rule.

Every structural variable is integer; the slack and surplus columns the
rows add are not. Depth-first, floor child explored first. Bounding
prunes any node whose relaxation value is <= the incumbent, so
equal-value alternatives are dropped once one optimum is known.
Deterministic by construction.

Only the root relaxation is solved from scratch (`simplex.solve_lp`). A
child is its parent's system plus one branch row, x_j <= floor or
x_j >= floor + 1, and is solved from its parent's final `SimplexState` by
`simplex.resolve_after`, the warm path every search child takes too. The
branch row cuts off the parent's vertex: its slack starts basic at a
negative value, the extended basis stays dual feasible for the objective,
and dual simplex pivots reach the child's optimum or prove it
infeasible; the returned tableau's state is the child's. The program
keeps its integer cost (`LinearProgram.integer_cost`), which the root
prices; its reduced row rides in each node's state, and every child
re-solves on its parent's. A stack entry is (parent state, branch row), so
no child's program is built. An appended slack belongs to its row as
written, as in a from-scratch solve, so a child's system is its extended
program's.

A node is read in integers: its value times det and the objective's
scale is the carried objective row's last entry, negated. `Fraction`s
are built only for a kept incumbent, whose point is the structural part
of the node's point.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import UnboundedRelaxation
from .simplex import (
    GREATER_EQ,
    LESS_EQ,
    LinearProgram,
    LinearRow,
    SimplexState,
    Status,
    resolve_after,
    solve_lp,
)


@dataclass(frozen=True)
class MilpResult:
    """point/value describe the best integral solution found. value is the
    exact optimum unless early_stop is set, in which case the search quit
    as soon as the incumbent rose above the requested cutoff."""

    status: Status
    point: tuple[Fraction, ...] | None
    value: Fraction | None
    early_stop: bool = False


def branch_rows(state: SimplexState, n: int) -> tuple[LinearRow, LinearRow] | None:
    """Dakin's branch at an optimal state over n structural variables: the
    rows x_j <= floor and x_j >= floor + 1 on the smallest structural x_j
    whose value, its right-hand side over det, is fractional, floor being
    its right-hand side // det; None at an integer vertex."""
    det = state.det
    j, rhs = min(
        ((var, row[-1]) for var, row in zip(state.basis, state.rows) if var < n and row[-1] % det),
        default=(-1, 0),
    )
    if j < 0:
        return None
    lo, unit = rhs // det, ((j, 1),)
    return LinearRow(unit, LESS_EQ, lo), LinearRow(unit, GREATER_EQ, lo + 1)


def _relaxation(
    program: LinearProgram, parent: SimplexState | None, row: LinearRow | None
) -> SimplexState | None:
    """A node's optimal LP state, or None when its LP is infeasible: the
    root (no parent) from scratch, a child from its parent's final state
    plus its branch row, on the parent's carried objective row."""
    if parent is None:
        state = solve_lp(program)
        if state.status is Status.UNBOUNDED:
            raise UnboundedRelaxation("root relaxation has no finite optimum")
        return state if state.status is Status.OPTIMAL else None
    tab = resolve_after(parent, (row,))
    return None if tab is None else tab.state(Status.OPTIMAL)


def solve_milp(
    program: LinearProgram,
    cutoff: Fraction | None = None,
    incumbent: tuple[Sequence[Fraction], Fraction] | None = None,
) -> MilpResult:
    """Maximize over the integer points of the program's rows.

    cutoff: stop as soon as some integral solution exceeds it (the caller
    only cares whether anything beats that threshold, not by how much).
    incumbent: known feasible (point, value) used to seed pruning.
    """
    scale = program.integer_cost[1]
    best_point: tuple[Fraction, ...] | None = None
    best_value: Fraction | None = None
    if incumbent is not None:
        best_point = tuple(incumbent[0])
        best_value = incumbent[1]

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
        if best_value is not None and (
            scaled * best_value.denominator <= best_value.numerator * det * scale
        ):
            continue

        rows = branch_rows(state, program.num_vars)
        if rows is None:
            best_point = state.structural_point(program.num_vars)
            best_value = Fraction(scaled, det * scale)
            if cutoff is not None and best_value > cutoff:
                return MilpResult(Status.OPTIMAL, best_point, best_value, early_stop=True)
            continue

        floor_row, ceil_row = rows
        stack.append((state, ceil_row))
        stack.append((state, floor_row))

    if best_point is None:
        return MilpResult(Status.INFEASIBLE, None, None)
    return MilpResult(Status.OPTIMAL, best_point, best_value)
