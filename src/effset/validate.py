"""Checks that an instance satisfies the assumptions the search relies on:
a bounded feasible region, strictly positive denominators over it, and at
least one feasible integer point, checked in that order."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import AssumptionViolated, InvariantViolated, UnboundedDomain
from .milp import solve_milp
from .model import AffineForm, ProblemInstance
from .simplex import (
    LinearProgram,
    LinearRow,
    SimplexState,
    Tableau,
    feasible_tableau,
    optimize,
)


@dataclass(frozen=True)
class InstanceCertificate:
    """Evidence gathered while validating.

    denominator_minima: continuous min of each denominator, in instance
    order (criteria first, then utilities).
    integer_witness: one feasible integer point.
    """

    denominator_minima: tuple[Fraction, ...]
    integer_witness: tuple[int, ...]


def feasible_start(rows: Sequence[LinearRow], n: int) -> SimplexState | None:
    """The feasible tableau of the rows plus x >= 0 (`feasible_tableau`)
    as a state, or None when they are infeasible. Each LP over the rows
    then optimizes its own integer cost from a copy of it
    (`optimize(Tableau.of_state(start), cost)`), the path `solve_lp` takes
    from scratch, so a caller makes the rows feasible once."""
    tab = feasible_tableau(n, rows)
    return None if tab is None else tab.state()


def check_relaxation(start: SimplexState | None, n: int) -> None:
    """Raise AssumptionViolated unless the rows `start` was built from
    (see feasible_start) describe a nonempty bounded region. Over x >= 0
    the region is bounded exactly when max sum(x) is finite, so one LP
    decides both."""
    if start is None:
        raise AssumptionViolated("the continuous relaxation is empty", reason="empty-domain")
    try:
        optimize(Tableau.of_state(start), [1] * n)
    except UnboundedDomain:
        raise AssumptionViolated("the continuous relaxation is unbounded", reason="unbounded")


def denominator_minimum(
    start: SimplexState | None, den: AffineForm
) -> tuple[Fraction, tuple[Fraction, ...]] | None:
    """(minimum, minimizer) of an affine form over the rows `start` was
    built from (see feasible_start), or None when that LP has no optimum
    (empty, or unbounded below)."""
    if start is None:
        return None
    try:
        state = optimize(Tableau.of_state(start), [-c for c in den.scaled[0]])
    except UnboundedDomain:
        return None
    point = state.structural_point(len(den.coeffs))
    return den.at(point), point


def integer_witness(rows: Sequence[LinearRow], n: int) -> tuple[int, ...]:
    """One integer point of the rows plus x >= 0, or AssumptionViolated:
    over the zero objective every point is above -1, so the MILP returns
    the first one it meets."""
    result = solve_milp(LinearProgram.of(n, {}, rows), -1)
    if result is None:
        raise AssumptionViolated("no feasible integer point exists", reason="empty-domain")
    return result.point


def validate_instance(inst: ProblemInstance) -> InstanceCertificate:
    n = inst.variable_count
    rows = inst.rows
    start = feasible_start(rows, n)
    check_relaxation(start, n)

    minima = []
    for idx, obj in enumerate(inst.criteria + inst.utilities):
        found = denominator_minimum(start, obj.denominator)
        if found is None:
            raise InvariantViolated(f"denominator {idx} has no minimum over a bounded region")
        value, point = found
        if value <= 0:
            raise AssumptionViolated(
                f"denominator {idx} reaches {value} at {point}; it must stay positive"
            )
        minima.append(value)

    return InstanceCertificate(tuple(minima), integer_witness(rows, n))
