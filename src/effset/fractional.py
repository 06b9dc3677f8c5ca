"""Ratio-objective simplex over a polytope, plus an independent cross-check.

solve_lfp runs the adjacent-vertex method: at the current basis it reads
the reduced numerator row nu and reduced denominator row mu, which the
tableau carries through every pivot (simplex.Tableau.carry), together with
the values P(x*) and Q(x*) off their last entries, combines them into
gamma_j = Q(x*) nu_j - P(x*) mu_j, and pivots on the smallest index with
gamma_j > 0. All gamma_j <= 0 certifies a global maximum of the ratio,
because a linear ratio with positive denominator is pseudolinear over the
feasible region. Pricing is in integers; the ratio is built as a Fraction
once, at the optimum.

A search child (solve_lfp with a parent) starts from its parent's ratio
optimum, which its rows cut off. A dual re-solve (simplex.resolve_after)
for the linear cost q*P - p*Q, with p and q the parent vertex's numerator
and denominator values (Dinkelbach 1967), reaches a feasible vertex or
proves the child empty: its reduced row is the parent's gamma <= 0, so
the parent's basis is dual feasible. That row is priced as q*nu - p*mu
off the parent's carried rows, with p and q read off their last entries,
so no cost is built and no reduced row recomputed; nu and mu ride through
the dual pivots into the ratio phase, which goes on from there, and its
certificate proves a global maximum however the start vertex was reached
(pseudolinearity; Martos 1964).

solve_lfp_cc solves the same problem through the variable-change
t = 1/(q.x + beta), y = t x, which turns the ratio program into a plain LP.
It shares the pivot loop with solve_lfp but keeps its own formulation and
prices its plain LP objective, so it cross-checks the ratio pricing.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import AssumptionViolated, InvariantViolated, NotOptimal, UnboundedDomain
from .model import ZERO, AffineForm, FractionalObjective
from .simplex import (
    GREATER_EQ,
    LESS_EQ,
    LinearProgram,
    LinearRow,
    SimplexState,
    Status,
    Tableau,
    _bland,
    feasible_tableau,
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


def _costs(objective: FractionalObjective) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The numerator's and the denominator's integer costs (see
    AffineForm.scaled), the costs a tableau carries for the objective."""
    return objective.numerator.scaled[0], objective.denominator.scaled[0]


def _gamma(carrier, objective: FractionalObjective) -> tuple[int, int, list[int]]:
    """(p_val, q_val, gamma) at the vertex of a tableau or state `carrier`
    whose carried rows are the objective's reduced P and Q rows nu and mu
    (see Tableau.carry), over the dictionary columns.

    Each carried row ends in -det times its cost's value, so p_val =
    p_scale*det*P(x) is det*p_const minus nu's last entry, and likewise
    q_val; then gamma_j = q_val*nu_j - p_val*mu_j is Q(x)*(reduced P)_j -
    P(x)*(reduced Q)_j times p_scale*q_scale*det**2 > 0.
    """
    nu, mu = carrier.costs
    det = carrier.det
    p_val = det * objective.numerator.scaled[1] - nu[-1]
    q_val = det * objective.denominator.scaled[1] - mu[-1]
    return p_val, q_val, [q_val * a - p_val * b for a, b in zip(nu, mu)]


def _carried(tab: Tableau, objective: FractionalObjective) -> None:
    """Make tab's carried rows the objective's reduced P and Q rows, unless
    they already are."""
    costs = _costs(objective)
    if tab.priced != costs:
        tab.carry(*costs)


def ratio_gradient(tab: Tableau, objective: FractionalObjective) -> list[int]:
    """gamma at tab's vertex over its dictionary columns, times a positive
    integer (see _gamma), read off the objective's carried rows."""
    _carried(tab, objective)
    return _gamma(tab, objective)[2]


def maximize(
    num_vars: int,
    rows: Sequence[LinearRow],
    objective: FractionalObjective,
    parent: SimplexState | None = None,
) -> tuple[Fraction, SimplexState] | None:
    """solve_lfp's maximum and the final state attaining it, or None when
    the rows are empty. The search reads its companion maxima here, since
    solve_lfp is its node solve. With `parent`, an optimal final state of
    `objective` (else NotOptimal), this is the dual re-solve of a search
    child (see the module docstring) over its rows plus `rows`."""
    if parent is None:
        tab = feasible_tableau(num_vars, rows)
    elif parent.priced != _costs(objective):
        raise NotOptimal("the parent state was solved for another objective")
    else:
        # The parent's gamma, priced at its vertex for the whole re-solve.
        p, q, _ = _gamma(parent, objective)
        tab = resolve_after(parent, rows, lambda tab: [q * a - p * b for a, b in zip(*tab.costs)])
    if tab is None:
        return None
    return _ratio_phase(tab, objective), tab.state(Status.OPTIMAL)


def solve_lfp(
    num_vars: int,
    rows: Sequence[LinearRow],
    objective: FractionalObjective,
    parent: SimplexState | None = None,
) -> LfpResult:
    """Maximize a fractional objective over the row system plus x >= 0.

    The returned point is the structural part; the full state (with slack
    coordinates, final tableau and the objective's carried rows) rides
    along for reduced-row consumers.

    parent: the optimal final state of an earlier solve of the same
    objective (a search node's parent), left unchanged; one solved for
    another objective is refused (NotOptimal). Without it, `rows` are the
    whole system, solved from scratch. With it, `rows` are the inequality
    rows appended to the parent's system, and may reference its columns
    and the slacks of earlier rows among them; each slack is that of its
    row as written. The final basis, and the point where optima tie, may
    differ from a solve from scratch; the status and the value do not.
    """
    solved = maximize(num_vars, rows, objective, parent)
    if solved is None:
        state = SimplexState(Status.INFEASIBLE, num_vars, (), ())
        return LfpResult(Status.INFEASIBLE, None, None, state)
    value, state = solved
    return LfpResult(Status.OPTIMAL, state.structural_point(num_vars), value, state)


def _ratio_phase(tab: Tableau, objective: FractionalObjective) -> Fraction:
    """Pivot a primal-feasible tableau to the ratio maximum and return it.

    Prices Bland on gamma (see ratio_gradient): of the columns with
    gamma_j > 0, the one naming the smallest variable enters. The ratio is
    p_val*q_scale / (q_val*p_scale), compared across pivots by
    cross-multiplying; one Fraction is built at the end.
    """
    p_scale, q_scale = objective.numerator.scaled[2], objective.denominator.scaled[2]
    _carried(tab, objective)
    last = None

    def price(tab: Tableau) -> list[int]:
        nonlocal last
        p_val, q_val, gamma = _gamma(tab, objective)
        if q_val <= 0:
            raise AssumptionViolated(
                f"denominator evaluates to {Fraction(q_val, q_scale * tab.det)} "
                "at a feasible vertex"
            )
        if last is not None and p_val * last[1] < last[0] * q_val:
            raise InvariantViolated("ratio value decreased across a pivot")
        last = p_val, q_val
        return gamma

    if _bland(tab, price) is Status.UNBOUNDED:
        raise UnboundedDomain(
            "improving ray with no blocking row; the domain is not a polytope"
        )
    p_val, q_val = last
    return Fraction(p_val * q_scale, q_val * p_scale)


def fractional_gradient(state: SimplexState, objective: FractionalObjective) -> dict[int, Fraction]:
    """gamma_j = Q(x*) nu_j - P(x*) mu_j over the nonbasic indices.

    At an optimum of `objective` every entry is <= 0; positive entries
    flag nonbasic directions along which the ratio still improves.
    """
    tab = Tableau.of_state(state)
    gamma = ratio_gradient(tab, objective)
    scale = objective.numerator.scaled[2] * objective.denominator.scaled[2] * tab.det**2
    return {j: Fraction(g, scale) for j, g in sorted(zip(tab.cols, gamma))}


def _expand_rows(num_vars: int, rows: Sequence[LinearRow]):
    """Rewrite rows that mention slack variables into pure structural form.

    Slacks are affine in x (s = rhs - lhs or lhs - rhs), so substituting
    them out yields an equivalent system over x alone. Returns a list of
    (dense_coeffs, relation, rhs) triples in Fractions: each row's integer
    data divided by its scale.
    """
    added: list[tuple[list[Fraction], Fraction]] = []  # row i's slack, x_{num_vars + i}
    out = []
    for row in rows:
        dense = [ZERO] * num_vars
        shift = ZERO
        for j, numerator in row.coeffs:
            coeff = Fraction(numerator, row.scale)
            if j < num_vars:
                dense[j] += coeff
            else:
                expr, const = added[j - num_vars]
                for t, e in enumerate(expr):
                    if e:
                        dense[t] += coeff * e
                shift += coeff * const
        rhs = Fraction(row.rhs, row.scale) - shift
        out.append((dense, row.relation, rhs))
        if row.relation == LESS_EQ:
            added.append(([-d for d in dense], rhs))
        else:
            added.append((list(dense), -rhs))
    return out


def solve_lfp_cc(
    num_vars: int, rows: Sequence[LinearRow], objective: FractionalObjective
) -> tuple[Status, Fraction | None]:
    """Transform-based solve used as an independent oracle for solve_lfp.

    Variables are y = t x and t = 1/(q.x + beta) (Charnes & Cooper 1962).
    Each row a.x <= b becomes a.y - b t <= 0, the denominator is pinned by
    the pair q.y + beta t <= 1 and q.y + beta t >= 1, and the numerator
    p.y + alpha t is maximized as a plain LP. Returns the optimal ratio
    value; the maximizer is not recovered.
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
    cc_rows += [LinearRow.of(norm, LESS_EQ, 1), LinearRow.of(norm, GREATER_EQ, 1)]

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
