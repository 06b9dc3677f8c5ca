"""Branch-and-bound for mixed integer linear programs, exact arithmetic.

Depth-first, floor child explored first, branching always on the first
masked variable with a fractional value. Bounding prunes any node whose
relaxation value is <= the incumbent, so equal-value alternatives are
dropped once one optimum is known. Deterministic by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InvariantViolated, UnboundedRelaxation
from .simplex import GREATER_EQ, LESS_EQ, LinearProgram, LinearRow, Status, solve_lp


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
    total = program.objective_constant
    for c, v in zip(program.objective, point):
        if c and v:
            total += c * v
    return total


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
    """
    base = problem.program
    mask = problem.integer_mask
    best_point: tuple[Fraction, ...] | None = None
    best_value: Fraction | None = None
    if incumbent is not None:
        best_point = tuple(incumbent[0])
        best_value = incumbent[1]

    stack: list[tuple[LinearRow, ...]] = [()]
    first = True
    nodes = 0
    while stack:
        extra = stack.pop()
        nodes += 1
        if node_limit is not None and nodes > node_limit:
            raise RuntimeError(f"node limit {node_limit} exceeded")
        program = LinearProgram(
            base.num_vars,
            base.objective,
            base.objective_constant,
            base.rows + extra,
        )
        state = solve_lp(program)
        if state.status is Status.INFEASIBLE:
            first = False
            continue
        if state.status is Status.UNBOUNDED:
            if first:
                raise UnboundedRelaxation("root relaxation has no finite optimum")
            raise InvariantViolated("bounded root produced an unbounded child")
        first = False

        point = state.structural_point(base.num_vars)
        value = _objective_value(base, point)
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
        ceil_row = LinearRow.of({branch_var: 1}, GREATER_EQ, lo + 1)
        floor_row = LinearRow.of({branch_var: 1}, LESS_EQ, lo)
        stack.append(extra + (ceil_row,))
        stack.append(extra + (floor_row,))

    if best_point is None:
        return MilpResult(Status.INFEASIBLE, None, None)
    return MilpResult(Status.OPTIMAL, best_point, best_value)
