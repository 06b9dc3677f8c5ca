"""Brute-force reference answers.

Enumerates the feasible integer points inside the lattice bounding box of
the relaxation, then filters each objective family down to its maximal
points (`model.pareto_filter`: a sweep in descending lexicographic order
against the maximal points kept so far, which keeps exactly what pairwise
comparison keeps). This is deliberately the plainest exact implementation
that can be written down: it serves as ground truth for the search and as
the baseline it is timed against, so unarguable correctness beats
cleverness. All arithmetic is integer or Fraction, never float.
"""
from __future__ import annotations

import itertools
import math

from .errors import EnumerationBudgetExceeded, UnboundedDomain
from .model import Point, ProblemInstance, evaluate, pareto_filter
from .simplex import LinearProgram, Status, solve_lp

DEFAULT_BUDGET = 10**7


def variable_upper_bounds(inst: ProblemInstance) -> list | None:
    """Continuous max of each variable, or None when the relaxation is
    empty. Raises UnboundedDomain if any variable can grow forever."""
    rows = inst.rows
    bounds = []
    for j in range(inst.variable_count):
        state = solve_lp(LinearProgram.of(inst.variable_count, {j: 1}, rows))
        if state.status is Status.INFEASIBLE:
            return None
        if state.status is Status.UNBOUNDED:
            raise UnboundedDomain(f"variable x{j} is unbounded over the relaxation")
        bounds.append(state.structural_point(inst.variable_count)[j])
    return bounds


def enumerate_feasible(inst: ProblemInstance, budget: int = DEFAULT_BUDGET) -> list[Point]:
    """All feasible integer points, lexicographically ordered.

    The candidate box is the per-variable floor of the continuous maxima;
    if it holds more than `budget` lattice points the enumeration refuses
    to start rather than grind unboundedly. Each box point is tested
    against the instance's integer rows of scale 1 (`ProblemInstance.rows`),
    the halfspaces of Ax <= b.
    """
    bounds = variable_upper_bounds(inst)
    if bounds is None:
        return []
    dims = [math.floor(b) + 1 for b in bounds]
    total = math.prod(dims)
    if total > budget:
        raise EnumerationBudgetExceeded(
            f"candidate box holds {total} points, budget is {budget}"
        )

    return [
        pt
        for pt in itertools.product(*(range(d) for d in dims))
        if all(sum(c * pt[j] for j, c in row.coeffs) <= row.rhs for row in inst.rows)
    ]


def maximal_points(inst: ProblemInstance, points: list[Point], objectives) -> list[Point]:
    """Subset of `points` not dominated by any other under the given
    objective family, in the input order."""
    if not points:
        return []
    images = [(pt, tuple(evaluate(obj, pt) for obj in objectives)) for pt in points]
    return pareto_filter(images)


def efficient_sets(
    inst: ProblemInstance, budget: int = DEFAULT_BUDGET
) -> tuple[list[Point], list[Point], list[Point]]:
    """(criteria-efficient points, utility-efficient points, intersection),
    each lexicographically ordered."""
    points = enumerate_feasible(inst, budget)
    x_e = maximal_points(inst, points, inst.criteria)
    x_ep = maximal_points(inst, points, inst.utilities)
    both = set(x_e) & set(x_ep)
    return x_e, x_ep, [pt for pt in points if pt in both]
