"""Ratio-objective simplex over a polytope, plus an independent cross-check.

solve_lfp runs the adjacent-vertex method: at the current basis it forms the
reduced numerator row nu and reduced denominator row mu, combines them into
gamma_j = Q(x*) nu_j - P(x*) mu_j, and pivots on the smallest index with
gamma_j > 0. All gamma_j <= 0 certifies a global maximum of the ratio,
because a linear ratio with positive denominator is pseudolinear over the
feasible region. maximize_from runs the same ratio phase from a solved
state's basis, for another ratio over the same rows.

A search child (solve_lfp with a parent) starts from its parent's ratio
optimum, which its rows cut off. A dual re-solve (simplex.resolve_after)
for the linear cost q*P - p*Q, with p and q the parent vertex's numerator
and denominator values (Dinkelbach 1967), reaches a feasible vertex or
proves the child empty: its reduced row is the parent's gamma <= 0, so
the parent's basis is dual feasible. The ratio
phase goes on from there, and its certificate proves a global maximum
however the start vertex was reached (pseudolinearity; Martos 1964).

solve_lfp_cc solves the same problem through the variable-change
t = 1/(q.x + beta), y = t x, which turns the ratio program into a plain LP.
It shares the pivot loop with solve_lfp but keeps its own formulation and
prices its plain LP objective, so it cross-checks the ratio pricing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import AssumptionViolated, InvariantViolated, UnboundedDomain
from .model import AffineForm, FractionalObjective
from .simplex import (
    EQUAL,
    LESS_EQ,
    ZERO,
    LinearProgram,
    LinearRow,
    SimplexState,
    Status,
    Tableau,
    _bland,
    feasible_tableau,
    integer_form,
    reduced_row,
    resolve_after,
    solve_lp,
)


@dataclass(frozen=True)
class LfpResult:
    status: Status
    point: tuple[Fraction, ...] | None
    value: Fraction | None
    state: SimplexState


def _ratio_costs(objective: FractionalObjective, ncols: int):
    """Numerator and denominator as integer forms (see integer_form)."""
    return integer_form(objective.numerator, ncols), integer_form(objective.denominator, ncols)


def _gamma(tab: Tableau, p, q) -> tuple[int, int, list[int]]:
    """(p_val, q_val, gamma) at the tableau's vertex, over the dictionary
    columns, with the reduced P and Q rows carried as tab.costs (see
    Tableau.carry).

    p_val = p_scale*det*P(x) and nu = tab.reduced(p_cost) = p_scale*det*(the
    reduced P row), likewise for Q, so gamma_j = q_val*nu_j - p_val*mu_j is
    Q(x)*(reduced P)_j - P(x)*(reduced Q)_j times p_scale*q_scale*det**2 > 0.
    """
    (p_cost, p_const, _), (q_cost, q_const, _) = p, q
    p_val = tab.value_of(p_cost, p_const)
    q_val = tab.value_of(q_cost, q_const)
    nu, mu = tab.costs
    return p_val, q_val, [q_val * a - p_val * b for a, b in zip(nu, mu)]


def solve_lfp(
    num_vars: int,
    rows: Sequence[LinearRow],
    objective: FractionalObjective,
    parent: SimplexState | None = None,
) -> LfpResult:
    """Maximize a fractional objective over the row system plus x >= 0.

    The returned point is the structural part; the full state (with slack
    coordinates and final tableau) rides along for reduced-row consumers.

    parent: the optimal final state of an earlier solve of the same
    objective (a search node's parent), left unchanged. Without it, `rows`
    are the whole system, solved from scratch. With it, `rows` are the
    inequality rows appended to the parent's system, and may reference its
    columns and the slacks of earlier rows among them; each slack is that
    of its row as written. The final basis, and the point where optima tie,
    may differ from a solve from scratch; the status and the value do not.
    """
    if parent is None:
        tab = feasible_tableau(LinearProgram.of(num_vars, {}, rows))
    else:
        tab = resolve_after(parent, rows, _linearized(parent, objective))
    if tab is None:
        state = SimplexState(Status.INFEASIBLE, num_vars, (), ())
        return LfpResult(Status.INFEASIBLE, None, None, state)

    value = _ratio_phase(tab, objective)
    state = tab.state(Status.OPTIMAL)
    return LfpResult(Status.OPTIMAL, state.structural_point(num_vars), value, state)


def _linearized(state: SimplexState, objective: FractionalObjective) -> list[int]:
    """q*P - p*Q over the state's columns, divided by the gcd of its
    entries: its reduced row is the state's gamma over that gcd (see
    _gamma for p, q and the integer forms P and Q)."""
    tab = Tableau.of_state(state)
    (p_cost, p_const, _), (q_cost, q_const, _) = _ratio_costs(objective, tab.ncols)
    p, q = tab.value_of(p_cost, p_const), tab.value_of(q_cost, q_const)
    cost = [q * a - p * b for a, b in zip(p_cost, q_cost)]
    divisor = math.gcd(*cost) or 1
    return [c // divisor for c in cost]


def maximize_from(state: SimplexState, objective: FractionalObjective) -> Fraction:
    """The maximum of `objective` over the rows `state` was solved on.

    Ratio pivots from the state's optimal basis, which is feasible for the
    same rows; the state is left unchanged (Tableau.of_state copies the
    row list).
    """
    return _ratio_phase(Tableau.of_state(state), objective)


def _ratio_phase(tab: Tableau, objective: FractionalObjective) -> Fraction:
    """Pivot a primal-feasible tableau to the ratio maximum and return it.

    Prices Bland on gamma: of the columns with gamma_j > 0, the one
    naming the smallest variable enters.
    """
    p, q = _ratio_costs(objective, tab.ncols)
    p_scale, q_scale = p[2], q[2]
    tab.carry(p[0], q[0])
    value = None

    def price(tab: Tableau) -> list[int]:
        nonlocal value
        p_val, q_val, gamma = _gamma(tab, p, q)
        if q_val <= 0:
            raise AssumptionViolated(
                f"denominator evaluates to {Fraction(q_val, q_scale * tab.det)} "
                "at a feasible vertex"
            )
        current = Fraction(p_val * q_scale, q_val * p_scale)
        if value is not None and current < value:
            raise InvariantViolated("ratio value decreased across a pivot")
        value = current
        return gamma

    if _bland(tab, price) is Status.UNBOUNDED:
        raise UnboundedDomain(
            "improving ray with no blocking row; the domain is not a polytope"
        )
    return value


def fractional_gradient(state: SimplexState, objective: FractionalObjective) -> dict[int, Fraction]:
    """gamma_j = Q(x*) nu_j - P(x*) mu_j over the nonbasic indices.

    At an optimum of `objective` every entry is <= 0; positive entries
    flag nonbasic directions along which the ratio still improves.
    """
    tab = Tableau.of_state(state)
    p, q = _ratio_costs(objective, tab.ncols)
    tab.carry(p[0], q[0])
    _, _, gamma = _gamma(tab, p, q)
    scale = p[2] * q[2] * tab.det**2
    return {j: Fraction(g, scale) for j, g in sorted(zip(tab.cols, gamma))}


def _expand_rows(num_vars: int, rows: Sequence[LinearRow]):
    """Rewrite rows that mention slack variables into pure structural form.

    Slacks are affine in x (s = rhs - lhs or lhs - rhs), so substituting
    them out yields an equivalent system over x alone. Returns a list of
    (dense_coeffs, relation, rhs) triples in Fractions: each row's integer
    data divided by its scale.
    """
    added: dict[int, tuple[list[Fraction], Fraction]] = {}
    next_added = num_vars
    out = []
    for row in rows:
        dense = [ZERO] * num_vars
        shift = ZERO
        for j, numerator in row.coeffs:
            coeff = Fraction(numerator, row.scale)
            if j < num_vars:
                dense[j] += coeff
            else:
                expr, const = added[j]
                for t, e in enumerate(expr):
                    if e:
                        dense[t] += coeff * e
                shift += coeff * const
        rhs = Fraction(row.rhs, row.scale) - shift
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
