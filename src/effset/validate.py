"""Checks that an instance satisfies the assumptions the search relies on:
a bounded feasible region, strictly positive denominators over it, and at
least one feasible integer point."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import AssumptionViolated, UnboundedDomain, UnboundedRelaxation
from .milp import MilpProblem, solve_milp
from .model import AffineForm, ProblemInstance
from .oracle import variable_upper_bounds
from .simplex import LinearProgram, LinearRow, Status, constraint_rows, solve_lp


@dataclass(frozen=True)
class InstanceCertificate:
    """Evidence gathered while validating.

    variable_maxima: continuous max of each variable over the relaxation.
    denominator_minima: continuous min of each denominator, in instance
    order (criteria first, then utilities).
    integer_witness: one feasible integer point.
    """

    variable_maxima: tuple[Fraction, ...]
    denominator_minima: tuple[Fraction, ...]
    integer_witness: tuple[int, ...]


def denominator_minimum(
    rows: Sequence[LinearRow], n: int, den: AffineForm
) -> tuple[Fraction, tuple[Fraction, ...]] | None:
    """(minimum, minimizer) of an affine form over the rows plus x >= 0,
    or None when that LP has no optimum."""
    state = solve_lp(LinearProgram.of(n, [-c for c in den.coeffs], rows))
    if state.status is not Status.OPTIMAL:
        return None
    point = state.structural_point(n)
    return den.at(point), point


def validate_instance(inst: ProblemInstance) -> InstanceCertificate:
    n = inst.variable_count
    rows = constraint_rows(inst.a_matrix, inst.b_vector)
    try:
        maxima = variable_upper_bounds(inst)
    except UnboundedDomain as exc:
        raise AssumptionViolated(str(exc), reason="unbounded") from None
    if maxima is None:
        raise AssumptionViolated("the continuous relaxation is empty", reason="empty-domain")

    minima = []
    objectives = list(inst.criteria) + list(inst.utilities)
    for idx, obj in enumerate(objectives):
        found = denominator_minimum(rows, n, obj.denominator)
        if found is None:
            raise AssumptionViolated("denominator minimization did not solve")
        value, point = found
        if value <= 0:
            raise AssumptionViolated(
                f"denominator {idx} reaches {value} at {point}; it must stay positive"
            )
        minima.append(value)

    program = LinearProgram.of(n, {}, rows)
    milp = MilpProblem(program, (True,) * n)
    try:
        result = solve_milp(milp)
    except UnboundedRelaxation:
        raise AssumptionViolated(
            "the continuous relaxation is unbounded", reason="unbounded"
        ) from None
    if result.status is not Status.OPTIMAL or result.point is None:
        raise AssumptionViolated("no feasible integer point exists", reason="empty-domain")
    witness = tuple(int(v) for v in result.point)

    return InstanceCertificate(tuple(maxima), tuple(minima), witness)
