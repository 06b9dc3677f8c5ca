"""Exact membership tests: is an integer point efficient for the ranking
criteria, and efficient for the two utilities?

Both tests share one construction. Given objectives Z_i = (c_i.y + c0_i) /
(d_i.y + d0_i) and a candidate x*, require one row per objective,

    [c_i - Z_i(x*) d_i] . y >= Z_i(x*) d0_i - c0_i,

with y ranging over the original integer feasible set. Row i's surplus
aux_i is the difference of the two sides, and because denominators are
positive, aux_i >= 0 is equivalent to Z_i(y) >= Z_i(x*). The k rows come
first, so aux_i is column n + i of the program, and the objective
sum(aux) prices those surplus columns; y is the only variable. x* itself
is feasible at value 0, and a feasible y is worth more than 0 exactly when
it weakly improves every objective with one strict improvement. So x* is
efficient exactly when `solve_milp` finds no integer point above 0, and
the first point it finds above 0 is a dominating witness.

Level rows are built in integers from each objective's integer data
(`AffineForm.scaled`, computed once per form) and the two integer values
at x*, then divided by their gcd (`_level_row`). That is the row the
rational construction gives, scaled by the lcm of its denominators, so
the written tableau is the same. The instance's constraint rows are built
once per instance (`ProblemInstance.rows`) and shared by every point's
programs; a point is checked against them in integers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InfeasiblePoint, ZeroDenominator
from .milp import solve_milp
from .model import FractionalObjective, Point, ProblemInstance, is_feasible
from .simplex import GREATER_EQ, LinearProgram, LinearRow


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


def _level_row(obj: FractionalObjective, point: Point) -> LinearRow:
    """[c - Z(x*) d] . y >= Z(x*) d0 - c0 for Z = obj at the integer point
    x*, built in integers. With (C, C0, sn) = obj.numerator.scaled and
    (D, D0, sd) = obj.denominator.scaled, P = C.x* + C0 and Q = D.x* + D0
    (`AffineForm.scaled_at`) are sn and sd times the two values, so
    Z(x*) = P sd / (Q sn), and the row times Q sn (Q > 0, or all of P, Q
    negated) is (Q C - P D) . y >= P D0 - Q C0. LinearRow.over divides it
    by its gcd, so its scale is the lcm of the rational row's
    denominators."""
    c, c0, sn = obj.numerator.scaled
    d, d0, _ = obj.denominator.scaled
    p = obj.numerator.scaled_at(point)
    q = obj.denominator.scaled_at(point)
    if q == 0:
        raise ZeroDenominator(f"denominator vanishes at {point}")
    if q < 0:
        p, q = -p, -q
    return LinearRow.over([q * a - p * b for a, b in zip(c, d)], GREATER_EQ, p * d0 - q * c0, q * sn)


def _membership_program(
    inst: ProblemInstance, point: Point, objectives: Sequence[FractionalObjective]
) -> LinearProgram:
    """The program for `objectives` at a checked point (see _checked): one
    level row per objective, then the instance's rows."""
    n, k = inst.variable_count, len(objectives)
    rows = (*(_level_row(obj, point) for obj in objectives), *inst.rows)
    return LinearProgram(n, (0,) * n + (1,) * k, 1, rows)


def _checked(inst: ProblemInstance, point: Sequence[int]) -> Point:
    """The point as ints, once it is checked to be an integer feasible
    point (is_feasible tests it on the instance's integer rows)."""
    if not (is_feasible(inst, point) and all(int(v) == v for v in point)):
        raise InfeasiblePoint(f"{tuple(point)} is not an integer feasible point")
    return tuple(int(v) for v in point)


def is_in_solution_set(
    inst: ProblemInstance, point: Sequence[int], *, decide: bool = False
) -> EfficiencyVerdict:
    """Run both membership tests. Each asks whether some integer point is
    worth more than the candidate's value 0; the first dominating point
    found (if any) is the witness.

    decide: the search's entry point, which needs only in_solution_set and
    the witness. When the criteria test rejects, the utility test is
    skipped and boilfp_efficient is None. The point is checked once for
    both tests, which share the instance's rows (built once per instance)."""
    point = _checked(inst, point)
    mm = solve_milp(_membership_program(inst, point, inst.criteria), 0)
    if decide and mm is not None:
        return EfficiencyVerdict(False, None, mm.point)
    t2 = solve_milp(_membership_program(inst, point, inst.utilities), 0)
    found = mm or t2
    return EfficiencyVerdict(mm is None, t2 is None, None if found is None else found.point)
