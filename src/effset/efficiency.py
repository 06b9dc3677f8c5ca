"""Exact membership tests: is an integer point efficient for the ranking
criteria, and efficient for the two utilities?

Both tests share one construction. Given objectives Z_i = (c_i.y + c0_i) /
(d_i.y + d0_i) and a candidate x*, require one row per objective,

    [c_i - Z_i(x*) d_i] . y >= Z_i(x*) d0_i - c0_i,

with y ranging over the original integer feasible set. Row i's surplus
aux_i is the difference of the two sides, and because denominators are
positive, aux_i >= 0 is equivalent to Z_i(y) >= Z_i(x*). The k rows come
first, so aux_i is column n + i of the program, and the objective
sum(aux) prices those surplus columns; y is the only variable. The optimum
is 0 exactly when no feasible y weakly improves every objective with one
strict improvement, i.e. when x* is efficient. Any feasible solution with
positive sum exhibits a dominating y, so the search may stop at the first
one.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InfeasiblePoint, InvariantViolated
from .milp import MilpProblem, MilpResult, solve_milp
from .model import FractionalObjective, Point, ProblemInstance, evaluate, is_feasible
from .simplex import GREATER_EQ, ZERO, LinearProgram, LinearRow, constraint_rows


@dataclass(frozen=True)
class EfficiencyVerdict:
    moilfp_efficient: bool
    boilfp_efficient: bool
    witness: Point | None

    @property
    def in_solution_set(self) -> bool:
        return self.moilfp_efficient and self.boilfp_efficient


def _membership_program(
    inst: ProblemInstance, point: Sequence[int], objectives: Sequence[FractionalObjective]
) -> MilpProblem:
    n = inst.variable_count
    rows = []
    for obj in objectives:
        level = evaluate(obj, point)
        coeffs: dict[int, Fraction] = {}
        for j in range(n):
            c = obj.numerator.coeffs[j] - level * obj.denominator.coeffs[j]
            if c:
                coeffs[j] = c
        rhs = level * obj.denominator.constant - obj.numerator.constant
        rows.append(LinearRow.of(coeffs, GREATER_EQ, rhs))
    rows.extend(constraint_rows(inst.a_matrix, inst.b_vector))
    program = LinearProgram.of(n, {n + i: 1 for i in range(len(objectives))}, rows)
    return MilpProblem(program, (True,) * n)


def build_mm(inst: ProblemInstance, point: Sequence[int]) -> MilpProblem:
    """Dominance search over the ranking criteria at an integer point."""
    if not (is_feasible(inst, point) and all(int(v) == v for v in point)):
        raise InfeasiblePoint(f"{tuple(point)} is not an integer feasible point")
    return _membership_program(inst, point, inst.criteria)


def build_t2(inst: ProblemInstance, point: Sequence[int]) -> MilpProblem:
    """Dominance search over the two utility ratios at an integer point."""
    if not (is_feasible(inst, point) and all(int(v) == v for v in point)):
        raise InfeasiblePoint(f"{tuple(point)} is not an integer feasible point")
    return _membership_program(inst, point, inst.utilities)


def _run(problem: MilpProblem, point: Sequence[int]) -> MilpResult:
    seed = tuple(Fraction(int(v)) for v in point)
    return solve_milp(problem, cutoff=ZERO, incumbent=(seed, ZERO))


def _witness(result: MilpResult) -> Point:
    xs = result.point
    if any(v.denominator != 1 for v in xs):
        raise InvariantViolated(f"membership witness {xs} is not integral")
    return tuple(int(v) for v in xs)


def is_in_solution_set(inst: ProblemInstance, point: Sequence[int]) -> EfficiencyVerdict:
    """Run both membership tests. The candidate x* itself seeds the search
    at value zero, so the solver only has to decide whether anything beats
    zero; the first dominating point found (if any) is the witness."""
    mm_result = _run(build_mm(inst, point), point)
    t2_result = _run(build_t2(inst, point), point)
    if mm_result.value < 0 or t2_result.value < 0:
        raise InvariantViolated(
            f"membership values {mm_result.value}, {t2_result.value} below the seed's 0"
        )
    mo = mm_result.value == 0
    bo = t2_result.value == 0
    witness = None
    if not mo:
        witness = _witness(mm_result)
    elif not bo:
        witness = _witness(t2_result)
    return EfficiencyVerdict(mo, bo, witness)
