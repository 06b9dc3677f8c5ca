"""Branch-and-bound for mixed integer linear programs, exact arithmetic.

Depth-first, floor child explored first, branching always on the first
masked variable with a fractional value. Bounding prunes any node whose
relaxation value is <= the incumbent, so equal-value alternatives are
dropped once one optimum is known. Deterministic by construction.

Only the root relaxation is solved from scratch (`simplex.solve_lp`). A
child is its parent's system plus one branch row, x_j <= floor or
x_j >= floor + 1, and is solved from its parent's final `SimplexState`:
`simplex.feasible_after` appends the row and runs phase one from the
parent's basis, and `simplex.optimize` runs phase two on the tableau it
returns. A stack entry is (parent state, branch row), so no child's
program is built. An appended slack belongs to its row as written, as in
a from-scratch solve, so a child's system is its extended program's.

The objective may price the added columns of the program's rows (see
`simplex.LinearProgram`), so a node's value is read off its full point;
the point a result reports is the structural part.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InvariantViolated, NodeLimitExceeded, UnboundedRelaxation
from .simplex import (
    GREATER_EQ,
    LESS_EQ,
    LinearProgram,
    LinearRow,
    SimplexState,
    Status,
    feasible_after,
    optimize,
    solve_lp,
)


@dataclass(frozen=True)
class MilpProblem:
    program: LinearProgram
    integer_mask: tuple[bool, ...]

    def __post_init__(self):
        if len(self.integer_mask) != self.program.num_vars:
            raise ValueError("mask length differs from variable count")


@dataclass(frozen=True)
class MilpResult:
    """point/value describe the best integral solution found. value is the
    exact optimum unless early_stop is set, in which case the search quit
    as soon as the incumbent rose above the requested cutoff."""

    status: Status
    point: tuple[Fraction, ...] | None
    value: Fraction | None
    early_stop: bool = False


def _objective_value(program: LinearProgram, point: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for c, v in zip(program.objective, point):
        if c and v:
            total += c * v
    return total


def _relaxation(
    program: LinearProgram, parent: SimplexState | None, row: LinearRow | None
) -> SimplexState | None:
    """A node's optimal LP state, or None when its LP is infeasible: the
    root (no parent) from scratch, a child from its parent's final state
    plus its branch row."""
    if parent is None:
        state = solve_lp(program)
        if state.status is Status.UNBOUNDED:
            raise UnboundedRelaxation("root relaxation has no finite optimum")
        return state if state.status is Status.OPTIMAL else None
    tab = feasible_after(parent, (row,))
    if tab is None:
        return None
    state = optimize(tab, program.objective)
    if state.status is Status.UNBOUNDED:
        raise InvariantViolated("bounded root produced an unbounded child")
    return state


def solve_milp(
    problem: MilpProblem,
    cutoff: Fraction | None = None,
    incumbent: tuple[Sequence[Fraction], Fraction] | None = None,
    node_limit: int | None = None,
) -> MilpResult:
    """Maximize over the mixed-integer feasible set.

    cutoff: stop as soon as some integral solution exceeds it (the caller
    only cares whether anything beats that threshold, not by how much).
    incumbent: known feasible (point, value) used to seed pruning.
    node_limit: most nodes to solve, infeasible ones included.
    """
    base = problem.program
    mask = problem.integer_mask
    best_point: tuple[Fraction, ...] | None = None
    best_value: Fraction | None = None
    if incumbent is not None:
        best_point = tuple(incumbent[0])
        best_value = incumbent[1]

    # A node to solve: its parent's final state (None at the root) and the
    # branch row it appends to the parent's system.
    stack: list[tuple[SimplexState | None, LinearRow | None]] = [(None, None)]
    nodes = 0
    while stack:
        parent, row = stack.pop()
        nodes += 1
        if node_limit is not None and nodes > node_limit:
            raise NodeLimitExceeded(f"node limit {node_limit} exceeded")
        state = _relaxation(base, parent, row)
        if state is None:
            continue

        full = state.full_point()
        point = full[: base.num_vars]
        value = _objective_value(base, full)
        if best_value is not None and value <= best_value:
            continue

        branch_var = -1
        for j, integral in enumerate(mask):
            if integral and point[j].denominator != 1:
                branch_var = j
                break
        if branch_var < 0:
            best_point, best_value = point, value
            if cutoff is not None and value > cutoff:
                return MilpResult(Status.OPTIMAL, best_point, best_value, early_stop=True)
            continue

        lo = math.floor(point[branch_var])
        stack.append((state, LinearRow.of({branch_var: 1}, GREATER_EQ, lo + 1)))
        stack.append((state, LinearRow.of({branch_var: 1}, LESS_EQ, lo)))

    if best_point is None:
        return MilpResult(Status.INFEASIBLE, None, None)
    return MilpResult(Status.OPTIMAL, best_point, best_value)
