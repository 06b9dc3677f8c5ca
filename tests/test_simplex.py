import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effset.errors import NotOptimal
from effset.model import AffineForm
from effset.simplex import (
    EQUAL,
    GREATER_EQ,
    LESS_EQ,
    LinearProgram,
    LinearRow,
    Status,
    reduced_row,
    solve_lp,
)


def lp(num_vars, objective, rows, constant=0):
    return LinearProgram.of(
        num_vars,
        objective,
        [LinearRow.of(c, rel, rhs) for c, rel, rhs in rows],
        constant,
    )


class TestRowConstruction:
    def test_mapping_and_dense_forms_agree(self):
        from_map = LinearRow.of({0: 2, 2: 5}, LESS_EQ, 3)
        from_seq = LinearRow.of([2, 0, 5], LESS_EQ, 3)
        assert from_map == from_seq
        assert from_map.coeffs == ((0, Fraction(2)), (2, Fraction(5)))

    def test_drops_zeros(self):
        row = LinearRow.of({0: 1, 1: 0}, LESS_EQ, 3)
        assert row.coeffs == ((0, Fraction(1)),)

    def test_rejects_bad_relation(self):
        with pytest.raises(ValueError):
            LinearRow.of({0: 1}, "<", 3)


class TestSolveLp:
    def test_simple_maximum(self):
        program = lp(2, {0: 3, 1: 2}, [({0: 1, 1: 1}, LESS_EQ, 4), ({0: 1}, LESS_EQ, 2)])
        state = solve_lp(program)
        assert state.status is Status.OPTIMAL
        assert state.structural_point(2) == (2, 2)

    def test_infeasible(self):
        program = lp(1, {0: 1}, [({0: 1}, GREATER_EQ, 3), ({0: 1}, LESS_EQ, 1)])
        assert solve_lp(program).status is Status.INFEASIBLE

    def test_unbounded(self):
        program = lp(2, {0: 1}, [({1: 1}, LESS_EQ, 1)])
        assert solve_lp(program).status is Status.UNBOUNDED

    def test_equality_rows(self):
        program = lp(2, {1: 1}, [({0: 1, 1: 1}, EQUAL, 5), ({1: 1}, LESS_EQ, 3)])
        state = solve_lp(program)
        assert state.structural_point(2) == (2, 3)

    def test_redundant_equality_dropped(self):
        program = lp(
            2,
            {0: 1},
            [
                ({0: 1, 1: 1}, EQUAL, 4),
                ({0: 2, 1: 2}, EQUAL, 8),
                ({0: 1}, LESS_EQ, 3),
            ],
        )
        state = solve_lp(program)
        assert state.status is Status.OPTIMAL
        assert state.structural_point(2) == (3, 1)

    def test_contradictory_equalities_infeasible(self):
        program = lp(2, {0: 1}, [({0: 1, 1: 1}, EQUAL, 4), ({0: 1, 1: 1}, EQUAL, 5)])
        assert solve_lp(program).status is Status.INFEASIBLE

    def test_negative_rhs_handled(self):
        program = lp(2, {0: -1, 1: -1}, [({0: -1, 1: -1}, LESS_EQ, -3)])
        state = solve_lp(program)
        assert state.status is Status.OPTIMAL
        assert sum(state.structural_point(2)) == 3

    def test_degenerate_vertex_terminates(self):
        program = lp(
            2,
            {0: 1, 1: 1},
            [
                ({0: 1}, LESS_EQ, 1),
                ({0: 1, 1: 1}, LESS_EQ, 1),
                ({1: 1}, LESS_EQ, 1),
            ],
        )
        state = solve_lp(program)
        assert state.status is Status.OPTIMAL
        value = AffineForm.of([1, 1]).at(state.structural_point(2))
        assert value == 1


def _lhs(coeffs, x, y):
    return Fraction(coeffs.get(0, 0)) * x + Fraction(coeffs.get(1, 0)) * y


def _satisfied(lhs, relation, rhs):
    if relation == LESS_EQ:
        return lhs <= rhs
    if relation == GREATER_EQ:
        return lhs >= rhs
    return lhs == rhs


def _feasible_vertices(rows):
    """Every vertex of a 2-variable region: all pairwise intersections of
    constraint boundary lines and the axes, filtered for feasibility."""
    lines = [(Fraction(1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(1), Fraction(0))]
    for coeffs, _, rhs in rows:
        a = Fraction(coeffs.get(0, 0))
        b = Fraction(coeffs.get(1, 0))
        lines.append((a, b, Fraction(rhs)))

    def feasible(x, y):
        if x < 0 or y < 0:
            return False
        return all(_satisfied(_lhs(c, x, y), rel, rhs) for c, rel, rhs in rows)

    vertices = []
    for (a1, b1, r1), (a2, b2, r2) in itertools.combinations(lines, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        x = (r1 * b2 - r2 * b1) / det
        y = (a1 * r2 - a2 * r1) / det
        if feasible(x, y):
            vertices.append((x, y))
    return vertices


def _vertex_oracle_max(rows, objective):
    """Exact maximum over a 2-variable region by enumerating its vertices."""
    values = [objective[0] * x + objective[1] * y for x, y in _feasible_vertices(rows)]
    return max(values, default=None)


def _slack_extended(rows, x, y):
    """(x, y) followed by each inequality row's slack or surplus, in row
    order, as solve_lp numbers its added variables."""
    full = [Fraction(x), Fraction(y)]
    for coeffs, rel, rhs in rows:
        if rel == LESS_EQ:
            full.append(rhs - _lhs(coeffs, x, y))
        elif rel == GREATER_EQ:
            full.append(_lhs(coeffs, x, y) - rhs)
    return full


_coeff = st.fractions(-5, 5, max_denominator=6)
_rhs = st.fractions(-10, 20, max_denominator=6)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(_coeff, _coeff, st.sampled_from((LESS_EQ, GREATER_EQ, EQUAL)), _rhs),
        min_size=0,
        max_size=3,
    ),
    st.none() | st.tuples(_coeff, _coeff, _rhs, st.fractions(-3, 3, max_denominator=4)),
    st.tuples(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=6)),
    st.fractions(1, 25, max_denominator=5),
)
def test_solve_lp_matches_vertex_enumeration(extra_rows, duplicated, objective, box):
    # Rational data scales rows to integers over one common denominator;
    # a scaled copy of an equality row is redundant and is dropped after
    # phase one, leaving its scale as a constant factor of that denominator.
    rows = [({0: 1, 1: 1}, LESS_EQ, box)]
    rows += [({0: a, 1: b}, rel, r) for a, b, rel, r in extra_rows]
    if duplicated is not None and duplicated[3]:
        a, b, r, factor = duplicated
        rows += [({0: a, 1: b}, EQUAL, r), ({0: a * factor, 1: b * factor}, EQUAL, r * factor)]
    program = lp(2, {0: objective[0], 1: objective[1]}, rows)
    state = solve_lp(program)
    expected = _vertex_oracle_max(rows, objective)
    if expected is None:
        assert state.status is Status.INFEASIBLE
        return
    assert state.status is Status.OPTIMAL
    point = state.structural_point(2)
    value = objective[0] * point[0] + objective[1] * point[1]
    assert value == expected

    # z(y) = z(x*) + sum_j red_j * y_j over the slack-extended system, for
    # every feasible y.
    form = AffineForm.of([objective[1] - 2, objective[0]], Fraction(1, 3))
    coeffs, base = reduced_row(state, form)
    for x, y in _feasible_vertices(rows):
        full = _slack_extended(rows, x, y)
        assert base + sum(c * full[j] for j, c in coeffs.items()) == form.at((x, y))


class TestReducedRow:
    def test_demo_vertex_reduced_rows(self, demo):
        # Maximize x0 + x1: the optimum sits at (32/7, 8/7) with both
        # slacks nonbasic, so every reduced row is over indices {2, 3}.
        rows = [
            LinearRow.of({0: -1, 1: 4}, LESS_EQ, 0),
            LinearRow.of({0: 2, 1: -1}, LESS_EQ, 8),
        ]
        state = solve_lp(LinearProgram.of(2, {0: 1, 1: 1}, rows))
        assert state.structural_point(2) == (Fraction(32, 7), Fraction(8, 7))
        assert set(state.nonbasis) == {2, 3}

        f1_num = AffineForm.of([-1, 1], -3)
        f1_den = AffineForm.of([2, 1], 1)
        nu, p = reduced_row(state, f1_num)
        mu, q = reduced_row(state, f1_den)
        assert p == Fraction(-45, 7)
        assert q == Fraction(79, 7)
        assert nu == {2: Fraction(-1, 7), 3: Fraction(3, 7)}
        assert mu == {2: Fraction(-4, 7), 3: Fraction(-9, 7)}

    def test_reduced_row_is_exact_identity(self, demo):
        # z(y) = z(x*) + sum_j nu_j * y_j for every feasible y, with the
        # sum over nonbasic variables of the full slack-extended system.
        rows = [
            LinearRow.of({0: -1, 1: 4}, LESS_EQ, 0),
            LinearRow.of({0: 2, 1: -1}, LESS_EQ, 8),
        ]
        state = solve_lp(LinearProgram.of(2, {0: 1, 1: 1}, rows))
        form = AffineForm.of([5, -7], 3)
        coeffs, base = reduced_row(state, form)
        for y in [(0, 0), (1, 0), (4, 1), (3, 0)]:
            slacks = (
                Fraction(0) - (-y[0] + 4 * y[1]),
                Fraction(8) - (2 * y[0] - y[1]),
            )
            full = (*map(Fraction, y), *slacks)
            predicted = base + sum(coeffs[j] * full[j] for j in coeffs)
            assert predicted == form.at(y)

    def test_requires_optimal_state(self):
        program = lp(1, {0: 1}, [({0: 1}, GREATER_EQ, 3), ({0: 1}, LESS_EQ, 1)])
        state = solve_lp(program)
        with pytest.raises(NotOptimal):
            reduced_row(state, AffineForm.of([1]))
