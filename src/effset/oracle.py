"""Brute-force reference answers.

Enumerates the feasible integer points inside the lattice bounding box of
the relaxation, then filters each objective family down to its maximal
points (`model.pareto_filter`: a sweep in descending lexicographic order
against the maximal points kept so far, which keeps exactly what pairwise
comparison keeps). The box is walked depth-first in lexicographic order,
and each row bounds the next coordinate by what the coordinates after it
can still add over the box (implicit enumeration, Balas 1965), so only
prefixes some box point might complete are visited and the last
coordinate runs over exactly its feasible values. This is still the
plainest exact scan that can be written down: it serves as ground truth
for the search and as the baseline it is timed against, so unarguable
correctness beats cleverness. All arithmetic is integer or Fraction,
never float.
"""
from __future__ import annotations

import math
from typing import Sequence

from .errors import EnumerationBudgetExceeded, UnboundedDomain
from .model import LinearRow, Point, ProblemInstance, image, pareto_filter
from .simplex import Status, Tableau, optimize
from .validate import feasible_start

DEFAULT_BUDGET = 10**7


def variable_upper_bounds(inst: ProblemInstance) -> list | None:
    """Continuous max of each variable, or None when the relaxation is
    empty. Raises UnboundedDomain if any variable can grow forever. The
    rows are made feasible once (`validate.feasible_start`), and each
    variable is maximized from its own copy of that tableau, the path
    `solve_lp` takes from scratch."""
    n = inst.variable_count
    start = feasible_start(inst.rows, n)
    if start is None:
        return None
    bounds = []
    for j in range(n):
        state = optimize(Tableau.of_state(start), [0] * j + [1])
        if state.status is Status.UNBOUNDED:
            raise UnboundedDomain(f"variable x{j} is unbounded over the relaxation")
        bounds.append(state.structural_point(n)[j])
    return bounds


def enumerate_feasible(inst: ProblemInstance, budget: int = DEFAULT_BUDGET) -> list[Point]:
    """All feasible integer points, lexicographically ordered.

    The candidate box is the per-variable floor of the continuous maxima;
    if it holds more than `budget` lattice points the enumeration refuses
    to start rather than grind unboundedly. Its feasible points are those
    of the instance's integer rows of scale 1 (`ProblemInstance.rows`),
    the halfspaces of Ax <= b (see `_box_walk`).
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
    return _box_walk(inst.rows, [d - 1 for d in dims])


def _box_walk(rows: Sequence[LinearRow], top: Sequence[int]) -> list[Point]:
    """The integer points x of the box 0 <= x <= top that satisfy every
    row, of scale 1 and relation <=, in lexicographic order.

    Depth-first over x_0, x_1, ...: at depth k, a row's room is its slack
    after the prefix minus the least the coordinates after k can add over
    the box (the sum of their negative c_j * top_j). A positive coefficient
    c caps x_k at room // c and a negative one raises its lower end to
    ceil(room / c). A zero one bounds nothing, because the room is never
    negative: a row whose right-hand side is below the least the whole box
    adds ends the walk before it starts, and below depth 0 the row's bound
    on the coordinate before kept its room at least the least. At the last
    coordinate the least is zero, so the interval holds exactly the
    feasible values.
    """
    n = len(top)
    slack = [row.rhs for row in rows]
    # columns[k]: (row index, coefficient) over the rows with x_k in them.
    columns: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        for j, c in row.coeffs:
            columns[j].append((i, c))
    # least[k][i]: the least coordinates k, k+1, ... add to row i.
    least = [[0] * len(rows) for _ in range(n + 1)]
    for k in reversed(range(n)):
        least[k] = list(least[k + 1])
        for i, c in columns[k]:
            if c < 0:
                least[k][i] += c * top[k]
    if any(s < floor for s, floor in zip(slack, least[0])):
        return []
    if not n:
        return [()]
    points: list[Point] = []

    def walk(k: int, prefix: Point) -> None:
        lo, hi = 0, top[k]
        below, column = least[k + 1], columns[k]
        for i, c in column:
            room = slack[i] - below[i]
            if c > 0:
                hi = min(hi, room // c)
            else:
                lo = max(lo, -(room // -c))
        if k == n - 1:
            points.extend([(*prefix, x) for x in range(lo, hi + 1)])
            return
        for x in range(lo, hi + 1):
            for i, c in column:
                slack[i] -= c * x
            walk(k + 1, (*prefix, x))
            for i, c in column:
                slack[i] += c * x

    walk(0, ())
    return points


def maximal_points(points: list[Point], objectives) -> list[Point]:
    """Subset of `points` not dominated by any other under the given
    objective family, in the input order."""
    images = [(pt, image(objectives, pt)) for pt in points]
    return pareto_filter(images)


def efficient_sets(
    inst: ProblemInstance, budget: int = DEFAULT_BUDGET
) -> tuple[list[Point], list[Point], list[Point]]:
    """(criteria-efficient points, utility-efficient points, intersection),
    each lexicographically ordered."""
    points = enumerate_feasible(inst, budget)
    x_e = maximal_points(points, inst.criteria)
    x_ep = maximal_points(points, inst.utilities)
    both = set(x_e) & set(x_ep)
    return x_e, x_ep, [pt for pt in points if pt in both]
