"""Ratio-objective simplex over a polytope, plus an independent cross-check.

solve_lfp runs the adjacent-vertex method: at the current basis it forms the
reduced numerator row nu and reduced denominator row mu, combines them into
gamma_j = Q(x*) nu_j - P(x*) mu_j, and pivots on the smallest index with
gamma_j > 0. All gamma_j <= 0 certifies a global maximum of the ratio,
because a linear ratio with positive denominator is pseudolinear over the
feasible region.

solve_lfp_cc solves the same problem through the variable-change
t = 1/(q.x + beta), y = t x, which turns the ratio program into a plain LP.
It shares no pivoting logic with solve_lfp and exists to cross-check it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import AssumptionViolated, InvariantViolated, UnboundedDomain
from .model import AffineForm, FractionalObjective
from .simplex import (
    EQUAL,
    GREATER_EQ,
    LESS_EQ,
    ZERO,
    LinearProgram,
    LinearRow,
    SimplexState,
    Status,
    feasible_tableau,
    integer_cost,
    reduced_row,
    solve_lp,
)


@dataclass(frozen=True)
class LfpResult:
    status: Status
    point: tuple[Fraction, ...] | None
    value: Fraction | None
    state: SimplexState


def solve_lfp(num_vars: int, rows: Sequence[LinearRow], objective: FractionalObjective) -> LfpResult:
    """Maximize a fractional objective over the row system plus x >= 0.

    The returned point is the structural part; the full state (with slack
    coordinates and final tableau) rides along for reduced-row consumers.
    """
    program = LinearProgram.of(num_vars, {}, rows)
    tab = feasible_tableau(program)
    if tab is None:
        ncols = num_vars + sum(1 for r in rows if r.relation != EQUAL)
        return LfpResult(
            Status.INFEASIBLE,
            None,
            None,
            SimplexState(Status.INFEASIBLE, ncols, (), (), (), ()),
        )

    pad = [0] * (tab.ncols - num_vars)
    p_cost, p_scale = integer_cost((*objective.numerator.coeffs, objective.numerator.constant))
    q_cost, q_scale = integer_cost((*objective.denominator.coeffs, objective.denominator.constant))
    p_const, q_const = p_cost.pop(), q_cost.pop()
    p_cost += pad
    q_cost += pad

    # Tableau quantities come scaled by det and by each cost's own positive
    # scale: p_val = p_scale*det*P(x), nu = p_scale*det*(reduced P row), and
    # likewise for Q, so Q*nu_j - P*mu_j has the sign of q_val*nu_j - p_val*mu_j.
    value = None
    while True:
        p_val = tab.value_of(p_cost, p_const)
        q_val = tab.value_of(q_cost, q_const)
        if q_val <= 0:
            raise AssumptionViolated(
                f"denominator evaluates to {Fraction(q_val, q_scale * tab.det)} "
                "at a feasible vertex"
            )
        current = Fraction(p_val * q_scale, q_val * p_scale)
        if value is not None and current < value:
            raise InvariantViolated("ratio value decreased across a pivot")
        value = current

        nu = tab.reduced(p_cost)
        mu = tab.reduced(q_cost)
        enter = -1
        for j in range(tab.ncols):
            if q_val * nu[j] - p_val * mu[j] > 0:
                enter = j
                break
        if enter < 0:
            break

        leave = tab.leaving_row(enter)
        if leave < 0:
            raise UnboundedDomain(
                "improving ray with no blocking row; the domain is not a polytope"
            )
        tab.pivot(leave, enter)

    state = tab.state(Status.OPTIMAL)
    return LfpResult(Status.OPTIMAL, state.structural_point(num_vars), value, state)


def fractional_gradient(state: SimplexState, objective: FractionalObjective) -> dict[int, Fraction]:
    """gamma_j = Q(x*) nu_j - P(x*) mu_j over the nonbasic indices.

    At an optimum of `objective` every entry is <= 0; positive entries
    flag nonbasic directions along which the ratio still improves.
    """
    nu, p_val = reduced_row(state, objective.numerator)
    mu, q_val = reduced_row(state, objective.denominator)
    return {j: q_val * nu[j] - p_val * mu[j] for j in state.nonbasis}


def _expand_rows(num_vars: int, rows: Sequence[LinearRow]):
    """Rewrite rows that mention slack variables into pure structural form.

    Slacks are affine in x (s = rhs - lhs or lhs - rhs), so substituting
    them out yields an equivalent system over x alone. Returns a list of
    (dense_coeffs, relation, rhs) triples.
    """
    added: dict[int, tuple[list[Fraction], Fraction]] = {}
    next_added = num_vars
    out = []
    for row in rows:
        dense = [ZERO] * num_vars
        shift = ZERO
        for j, coeff in row.coeffs:
            if j < num_vars:
                dense[j] += coeff
            else:
                expr, const = added[j]
                for t, e in enumerate(expr):
                    if e:
                        dense[t] += coeff * e
                shift += coeff * const
        rhs = row.rhs - shift
        out.append((dense, row.relation, rhs))
        if row.relation != EQUAL:
            if row.relation == LESS_EQ:
                added[next_added] = ([-d for d in dense], rhs)
            else:
                added[next_added] = (list(dense), -rhs)
            next_added += 1
    return out


def solve_lfp_cc(
    num_vars: int, rows: Sequence[LinearRow], objective: FractionalObjective
) -> tuple[Status, Fraction | None]:
    """Transform-based solve used as an independent oracle for solve_lfp.

    Variables are y = t x and t = 1/(q.x + beta). Each row a.x <= b becomes
    a.y - b t <= 0, the denominator is pinned by q.y + beta t = 1, and the
    numerator p.y + alpha t is maximized as a plain LP. Returns the optimal
    ratio value; the maximizer is not recovered.
    """
    structural = _expand_rows(num_vars, rows)
    t_index = num_vars
    cc_rows = []
    for dense, relation, rhs in structural:
        coeffs = {j: c for j, c in enumerate(dense) if c}
        if rhs:
            coeffs[t_index] = -rhs
        cc_rows.append(LinearRow.of(coeffs, relation, 0))
    q = objective.denominator
    norm = {j: c for j, c in enumerate(q.coeffs) if c}
    norm[t_index] = q.constant
    cc_rows.append(LinearRow.of(norm, EQUAL, 1))

    p = objective.numerator
    cc_objective = {j: c for j, c in enumerate(p.coeffs) if c}
    cc_objective[t_index] = p.constant
    program = LinearProgram.of(num_vars + 1, cc_objective, cc_rows)
    state = solve_lp(program)
    if state.status is Status.INFEASIBLE:
        return Status.INFEASIBLE, None
    if state.status is Status.UNBOUNDED:
        raise UnboundedDomain("transformed program unbounded; domain is no polytope")
    form = AffineForm.of(list(p.coeffs) + [p.constant], 0)
    _, value = reduced_row(state, form)
    return Status.OPTIMAL, value
