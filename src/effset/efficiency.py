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
    """boilfp_efficient is None when the utility test was skipped (see
    is_in_solution_set's `decide`)."""

    moilfp_efficient: bool
    boilfp_efficient: bool | None
    witness: Point | None

    @property
    def in_solution_set(self) -> bool:
        return self.moilfp_efficient and self.boilfp_efficient


def _membership_program(
    inst: ProblemInstance,
    point: Sequence[int],
    objectives: Sequence[FractionalObjective],
    constraints: Sequence[LinearRow],
) -> MilpProblem:
    """The program for `objectives` at a checked point, over the instance's
    `constraints` (see constraint_rows)."""
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
    rows.extend(constraints)
    program = LinearProgram.of(n, {n + i: 1 for i in range(len(objectives))}, rows)
    return MilpProblem(program, (True,) * n)


def _checked(inst: ProblemInstance, point: Sequence[int]) -> tuple[LinearRow, ...]:
    """The instance's constraint rows, once the point is checked to be an
    integer feasible point."""
    if not (is_feasible(inst, point) and all(int(v) == v for v in point)):
        raise InfeasiblePoint(f"{tuple(point)} is not an integer feasible point")
    return constraint_rows(inst.a_matrix, inst.b_vector)


def build_mm(inst: ProblemInstance, point: Sequence[int]) -> MilpProblem:
    """Dominance search over the ranking criteria at an integer point."""
    return _membership_program(inst, point, inst.criteria, _checked(inst, point))


def build_t2(inst: ProblemInstance, point: Sequence[int]) -> MilpProblem:
    """Dominance search over the two utility ratios at an integer point."""
    return _membership_program(inst, point, inst.utilities, _checked(inst, point))


def _run(problem: MilpProblem, point: Sequence[int]) -> MilpResult:
    seed = tuple(Fraction(int(v)) for v in point)
    return solve_milp(problem, cutoff=ZERO, incumbent=(seed, ZERO))


def _efficient(result: MilpResult) -> bool:
    """Whether nothing beat the seed's value 0."""
    if result.value < 0:
        raise InvariantViolated(f"membership value {result.value} below the seed's 0")
    return result.value == 0


def _witness(result: MilpResult) -> Point:
    xs = result.point
    if any(v.denominator != 1 for v in xs):
        raise InvariantViolated(f"membership witness {xs} is not integral")
    return tuple(int(v) for v in xs)


def is_in_solution_set(
    inst: ProblemInstance, point: Sequence[int], *, decide: bool = False
) -> EfficiencyVerdict:
    """Run both membership tests. The candidate x* itself seeds the search
    at value zero, so the solver only has to decide whether anything beats
    zero; the first dominating point found (if any) is the witness.

    decide: the search's entry point, which needs only in_solution_set and
    the witness. When the criteria test rejects, the utility test is
    skipped and boilfp_efficient is None. The point is checked and the
    instance's constraint rows are built once for both tests."""
    constraints = _checked(inst, point)
    mm_result = _run(_membership_program(inst, point, inst.criteria, constraints), point)
    mo = _efficient(mm_result)
    if decide and not mo:
        return EfficiencyVerdict(False, None, _witness(mm_result))
    t2_result = _run(_membership_program(inst, point, inst.utilities, constraints), point)
    bo = _efficient(t2_result)
    witness = None
    if not mo:
        witness = _witness(mm_result)
    elif not bo:
        witness = _witness(t2_result)
    return EfficiencyVerdict(mo, bo, witness)
