import itertools
import math
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from effset import fractional, oracle, simplex
from effset.errors import AssumptionViolated, InvariantViolated, NotOptimal, UnboundedDomain
from effset.fractional import solve_lfp
from effset.milp import solve_milp
from effset.model import AffineForm, constraint_rows, instance, integers, ratio
from effset.simplex import (
    GREATER_EQ,
    LESS_EQ,
    LinearProgram,
    LinearRow,
    SimplexState,
    Tableau,
    reduced_row,
    resolve_after,
    solve_lp,
)
from effset.validate import validate_instance

from conftest import UNBOUNDED, assert_fits, full_point, outcome


def lp(num_vars, objective, rows):
    return LinearProgram.of(
        num_vars,
        objective,
        [LinearRow.of(c, rel, rhs) for c, rel, rhs in rows],
    )


def pair(coeffs, rhs):
    """The equation coeffs . x = rhs as a <= row and a >= row."""
    return [(coeffs, LESS_EQ, rhs), (coeffs, GREATER_EQ, rhs)]


# An objective entry as an int (when it is one), a string or a Fraction.
_objective_entry = st.fractions(-9, 9, max_denominator=12).flatmap(
    lambda v: st.sampled_from([v, str(v)] + [int(v)] * (v.denominator == 1))
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
        for relation in ("<", "=="):
            with pytest.raises(ValueError):
                LinearRow.of({0: 1}, relation, 3)

    def test_objective_may_price_added_columns_only(self):
        # Two structural columns and four rows make columns 0-5; the pair
        # for x1 = 1 adds two.
        rows = [
            LinearRow.of(c, rel, rhs)
            for c, rel, rhs in [({0: 1}, LESS_EQ, 1), *pair({1: 1}, 1), ({1: 1}, GREATER_EQ, 0)]
        ]
        assert LinearProgram.of(2, {5: 1}, rows).cost == (0, 0, 0, 0, 0, 1)
        assert LinearProgram.of(2, [1], rows).cost == (1, 0)
        for objective in ({6: 1}, [0, 0, 0, 0, 0, 0, 1], {-1: 1}):
            with pytest.raises(ValueError):
                LinearProgram.of(2, objective, rows)

    @settings(max_examples=100, deadline=None)
    @given(
        entries=st.lists(_objective_entry, max_size=6),
        rhs=_objective_entry,
        as_mapping=st.booleans(),
    )
    def test_objective_is_kept_as_integers_over_the_lcm_of_its_denominators(
        self, entries, rhs, as_mapping
    ):
        """cost[j] / scale is entry j of the objective, ints, strings and
        Fractions alike, and scale is the lcm of its denominators. Every
        builder converts through `model.integers`: a program's cost, a row
        (`LinearRow.of`) and a form (`AffineForm.scaled`) keep its ints
        over its scale, and `constraint_rows` keeps them at scale 1."""
        objective = dict(enumerate(entries)) if as_mapping else entries
        program = LinearProgram.of(2, objective, [LinearRow.of({0: 1}, LESS_EQ, 1)] * 4)
        values = [Fraction(v) for v in entries]
        values += [Fraction(0)] * (2 - len(values))
        assert program.scale == math.lcm(*(v.denominator for v in values))
        assert all(type(c) is int for c in program.cost)
        assert [Fraction(c, program.scale) for c in program.cost] == values
        assert (list(program.cost[: len(entries)]), program.scale) == integers(entries)

        (h, *a), scale = integers([rhs, *entries])
        sparse = tuple((j, c) for j, c in enumerate(a) if c)
        assert LinearRow.of(objective, LESS_EQ, rhs) == LinearRow(sparse, LESS_EQ, h, scale)
        assert AffineForm.of(entries, rhs).scaled == (tuple(a), h, scale)
        assert constraint_rows([entries], [rhs]) == (LinearRow(sparse, LESS_EQ, h),)


class TestSolveLp:
    def test_simple_maximum(self):
        program = lp(2, {0: 3, 1: 2}, [({0: 1, 1: 1}, LESS_EQ, 4), ({0: 1}, LESS_EQ, 2)])
        state = solve_lp(program)
        assert state.structural_point(2) == (2, 2)

    def test_infeasible(self):
        program = lp(1, {0: 1}, [({0: 1}, GREATER_EQ, 3), ({0: 1}, LESS_EQ, 1)])
        assert solve_lp(program) is None

    def test_unbounded(self):
        program = lp(2, {0: 1}, [({1: 1}, LESS_EQ, 1)])
        with pytest.raises(UnboundedDomain):
            solve_lp(program)

    def test_equality_rows(self):
        program = lp(2, {1: 1}, [*pair({0: 1, 1: 1}, 5), ({1: 1}, LESS_EQ, 3)])
        state = solve_lp(program)
        assert state.structural_point(2) == (2, 3)

    def test_redundant_equality_dropped(self):
        # The doubled pair is redundant; its rows stay in the system.
        program = lp(
            2,
            {0: 1},
            [*pair({0: 1, 1: 1}, 4), *pair({0: 2, 1: 2}, 8), ({0: 1}, LESS_EQ, 3)],
        )
        state = solve_lp(program)
        assert state.structural_point(2) == (3, 1)

    def test_contradictory_equalities_infeasible(self):
        program = lp(2, {0: 1}, [*pair({0: 1, 1: 1}, 4), *pair({0: 1, 1: 1}, 5)])
        assert solve_lp(program) is None

    def test_negative_rhs_handled(self):
        program = lp(2, {0: -1, 1: -1}, [({0: -1, 1: -1}, LESS_EQ, -3)])
        state = solve_lp(program)
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
        value = AffineForm.of([1, 1]).at(state.structural_point(2))
        assert value == 1


def test_every_solve_says_infeasible_and_unbounded_one_way():
    """Every state is an optimum: each solve returns None over an
    infeasible system and raises UnboundedDomain on an improving ray, LP,
    MILP and ratio solves alike, and the instance check turns the ray into
    its "unbounded" verdict."""
    empty = [LinearRow.of({0: 1, 1: 1}, GREATER_EQ, 3), LinearRow.of({0: 1, 1: 1}, LESS_EQ, 1)]
    parent = solve_lp(LinearProgram.of(2, [1, 1], empty[1:]))
    utility = ratio([1, 0], 0, [0, 1], 1)
    assert [
        simplex.feasible_tableau(2, empty),
        resolve_after(parent, empty[:1]),
        solve_lp(LinearProgram.of(2, [1, 1], empty)),
        solve_milp(LinearProgram.of(2, [1, 1], empty), -1),
        solve_lfp(2, empty, utility),
        fractional.maximize(2, empty, utility),
        fractional.solve_lfp_cc(2, empty, utility),
    ] == [None] * 7

    # x0 grows without bound along x1 = 0, and so does the utility.
    ray = [LinearRow.of({1: 1}, LESS_EQ, 1)]
    growing = LinearProgram.of(2, [1], ray)
    inst = instance([[0, 1]], [1], [utility] * 2, [utility] * 2)
    for solve in (
        lambda: simplex.optimize(simplex.feasible_tableau(2, ray), growing.cost),
        lambda: solve_lp(growing),
        lambda: solve_milp(growing, 0),
        lambda: solve_lfp(2, ray, utility),
        lambda: fractional.solve_lfp_cc(2, ray, utility),
        lambda: oracle.variable_upper_bounds(inst),
    ):
        with pytest.raises(UnboundedDomain):
            solve()
    with pytest.raises(AssumptionViolated) as raised:
        validate_instance(inst)
    assert raised.value.reason == "unbounded"


def _lhs(coeffs, x, y):
    return Fraction(coeffs.get(0, 0)) * x + Fraction(coeffs.get(1, 0)) * y


def _satisfied(lhs, relation, rhs):
    return lhs <= rhs if relation == LESS_EQ else lhs >= rhs


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
    """(x, y) followed by each row's slack or surplus, in row order, as
    solve_lp numbers its added variables."""
    full = [Fraction(x), Fraction(y)]
    for coeffs, rel, rhs in rows:
        gap = rhs - _lhs(coeffs, x, y)
        full.append(gap if rel == LESS_EQ else -gap)
    return full


@contextmanager
def carried_costs_checked():
    """Within the block, every carried row of a tableau seeded by
    Tableau.carry equals a fresh Tableau.reduced of the cost it was seeded
    with, followed by -Tableau.value_of that cost: after every pivot, after
    every appended row is written (its scale multiplies them, see
    simplex._written; its slack is basic and costs zero), and across a
    SimplexState round trip (Tableau.state, then Tableau.of_state
    seeds the new tableau with the costs of the old one). The tableau's
    `priced` names those costs. A tableau or state that did not come from a
    seeded one within the block is not checked. Yields the number of checks
    so far."""
    # Keyed by id, each entry holding its tableau or state alive, so no other
    # object can take over a seeded one's id within the block.
    seeded: dict[int, tuple] = {}
    checked = [0]
    carry, pivot, written = Tableau.carry, Tableau.pivot, simplex._written
    state, of_state = Tableau.state, Tableau.of_state.__func__

    def check(tab):
        if id(tab) not in seeded:
            return
        costs = seeded[id(tab)][1]
        assert tab.priced == costs
        expected = []
        for cost in costs:
            padded = [*cost, *[0] * (tab.ncols - len(cost))]
            expected.append([*tab.reduced(padded), -tab.value_of(padded)])
        assert tab.costs == expected
        checked[0] += 1

    def seeding_carry(tab, *costs):
        seeded[id(tab)] = (tab, costs)
        carry(tab, *costs)
        check(tab)

    def checking_pivot(tab, row_idx, col):
        pivot(tab, row_idx, col)
        check(tab)

    def checking_written(tab, row, column, basic):
        new = written(tab, row, column, basic)
        check(tab)
        return new

    def recording_state(tab):
        snapshot = state(tab)
        if id(tab) in seeded:
            seeded[id(snapshot)] = (snapshot, seeded[id(tab)][1])
        return snapshot

    def seeding_of_state(cls, snapshot):
        tab = of_state(cls, snapshot)
        if id(snapshot) in seeded:
            seeded[id(tab)] = (tab, seeded[id(snapshot)][1])
            check(tab)
        return tab

    with mock.patch.object(Tableau, "carry", seeding_carry), mock.patch.object(
        Tableau, "pivot", checking_pivot
    ), mock.patch.object(simplex, "_written", checking_written), mock.patch.object(
        Tableau, "state", recording_state
    ), mock.patch.object(
        Tableau, "of_state", classmethod(seeding_of_state)
    ):
        yield checked


_coeff = st.fractions(-5, 5, max_denominator=6)
_rhs = st.fractions(-10, 20, max_denominator=6)
# The relations of one drawn row; (LESS_EQ, GREATER_EQ) draws an equation
# as a pair of rows.
_relations = st.sampled_from(((LESS_EQ,), (GREATER_EQ,), (LESS_EQ, GREATER_EQ)))


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(_coeff, _coeff, _relations, _rhs),
        min_size=0,
        max_size=3,
    ),
    st.none() | st.tuples(_coeff, _coeff, _rhs, st.fractions(-3, 3, max_denominator=4)),
    st.tuples(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=6)),
    st.fractions(1, 25, max_denominator=5),
)
def test_solve_lp_matches_vertex_enumeration(extra_rows, duplicated, objective, box):
    # Rational data scales rows to integers over one common denominator;
    # an equation's scaled copy is a redundant pair of rows, which stays in
    # the system with its slacks.
    rows = [({0: 1, 1: 1}, LESS_EQ, box)]
    rows += [({0: a, 1: b}, rel, r) for a, b, rels, r in extra_rows for rel in rels]
    if duplicated is not None and duplicated[3]:
        a, b, r, factor = duplicated
        rows += [*pair({0: a, 1: b}, r), *pair({0: a * factor, 1: b * factor}, r * factor)]
    program = lp(2, {0: objective[0], 1: objective[1]}, rows)
    # Pricing reads carried cost rows; they must equal fresh reduced rows
    # after every pivot of solve_lp's phase two and solve_lfp's ratio
    # phase, or the walk would differ from recomputing them.
    with carried_costs_checked():
        state = solve_lp(program)
        utility = ratio([objective[0], objective[1]], 1, [1, 2], box)
        assert (solve_lfp(2, program.rows, utility) is None) == (state is None)
    expected = _vertex_oracle_max(rows, objective)
    if expected is None:
        assert state is None
        return
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


_BIG = 10**12
_big = st.integers(-3, 3).flatmap(lambda p: st.integers(p * _BIG - 1000, p * _BIG + 1000))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            _big,
            _big,
            st.sampled_from((LESS_EQ, GREATER_EQ)),
            st.integers(0, 20),
            st.lists(st.sampled_from((1, 2, 7)), max_size=2),
        ),
        max_size=3,
    ),
    st.tuples(_big, _big),
    st.tuples(st.integers(0, _BIG + 1000), st.integers(0, _BIG + 1000), st.integers(1, _BIG)),
    st.integers(1, 25),
    st.booleans(),
)
def test_huge_coefficients_and_tied_vertices_match_vertex_enumeration(
    drawn, objective, denominator, box, through_origin
):
    """Coefficients around 10**12 and degenerate vertices where several
    rows meet: the box row comes with a scaled copy, each drawn row may
    come with duplicates and scaled copies, and the drawn rows may all pass
    through the origin. solve_lp's value and solve_lfp's ratio value equal
    the maxima over the enumerated vertices, and the carried cost rows
    equal fresh reduced rows after every pivot."""
    rows = [({0: _BIG, 1: _BIG}, LESS_EQ, box * _BIG), ({0: 2, 1: 2}, LESS_EQ, 2 * box)]
    for a, b, rel, r, copies in drawn:
        rhs = 0 if through_origin else r * _BIG + a % 1000
        for factor in (1, *copies):
            rows.append(({0: a * factor, 1: b * factor}, rel, rhs * factor))
    program = lp(2, {0: objective[0], 1: objective[1]}, rows)
    utility = ratio(list(objective), 0, list(denominator[:2]), denominator[2])
    with carried_costs_checked():
        state = solve_lp(program)
        result = solve_lfp(2, program.rows, utility)
    vertices = _feasible_vertices(rows)
    if not vertices:
        assert state is result is None
        return
    assert_fits(2, program.rows, full_point(state))
    assert_fits(2, program.rows, full_point(result.state))
    x, y = state.structural_point(2)
    assert objective[0] * x + objective[1] * y == _vertex_oracle_max(rows, objective)
    assert result.value == max(utility.numerator.at(v) / utility.denominator.at(v) for v in vertices)


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
        assert set(state.cols) == {2, 3}

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
        # Only an optimum is a state: an infeasible program's solve returns
        # none, and an unbounded one's raises.
        program = lp(1, {0: 1}, [({0: 1}, GREATER_EQ, 3), ({0: 1}, LESS_EQ, 1)])
        assert solve_lp(program) is None
        with pytest.raises(UnboundedDomain):
            solve_lp(lp(1, {0: 1}, [({0: 1}, GREATER_EQ, 3)]))


class TestContinuation:
    def test_pivoting_from_a_solved_state_leaves_the_state_unchanged(self):
        rows = [
            LinearRow.of({0: -1, 1: 4}, LESS_EQ, 0),
            LinearRow.of({0: 2, 1: -1}, LESS_EQ, 8),
        ]
        state = solve_lp(LinearProgram.of(2, {0: 1, 1: 1}, rows))
        basis, matrix, point = state.basis, [list(r) for r in state.rows], full_point(state)
        carried = [list(r) for r in state.costs]

        tab = Tableau.of_state(state)
        assert tab.costs == carried
        col = tab.cols.index(2)
        row_idx = next(i for i, row in enumerate(tab.rows) if row[col])
        tab.pivot(row_idx, col)

        assert 2 in tab.basis
        assert state.basis == basis
        assert [list(r) for r in state.rows] == matrix
        assert [list(r) for r in state.costs] == carried
        assert full_point(state) == point == (Fraction(32, 7), Fraction(8, 7), 0, 0)


_row_coeff = st.fractions(-4, 4, max_denominator=3)
_parent_rows = st.lists(
    st.tuples(
        st.tuples(_row_coeff, _row_coeff, _row_coeff),
        st.sampled_from((LESS_EQ, GREATER_EQ)),
        st.fractions(0, 12, max_denominator=4),
    ),
    max_size=4,
)
_objective3 = st.tuples(*[st.integers(-4, 4)] * 3)


def _parent_system(extra_rows, box, doubled_box):
    """The rows of a parent over three variables. Rows with rhs 0 and a
    doubled box row make degenerate parents: a basic variable at zero.
    Without the box row the region may be unbounded."""
    rows = []
    if box is not None:
        rows.append(LinearRow.of([1, 1, 1], LESS_EQ, box))
        if doubled_box:
            rows.append(LinearRow.of([2, 2, 2], LESS_EQ, 2 * box))
    return rows + [LinearRow.of(c, rel, rhs) for c, rel, rhs in extra_rows]


def _child_rows(data, state):
    """Rows a child appends to an optimal parent: a floor or a ceil branch
    row on a structural variable, or one or two cut rows over nonbasic
    columns, the search's kinds of child."""
    point = full_point(state)
    kind = data.draw(st.sampled_from(("floor", "ceil", "cut")), label="kind")
    if kind == "cut":
        subsets = st.sets(st.sampled_from(sorted(state.cols)), min_size=1)
        count = data.draw(st.integers(1, 2), label="cuts")
        return [
            LinearRow.of({j: 1 for j in data.draw(subsets, label="H")}, GREATER_EQ, 1)
            for _ in range(count)
        ]
    fractional = [j for j in range(3) if point[j].denominator != 1] or [0, 1, 2]
    j = data.draw(st.sampled_from(fractional), label="branch variable")
    lo = math.floor(point[j])
    if kind == "floor":
        return [LinearRow.of({j: 1}, LESS_EQ, lo)]
    return [LinearRow.of({j: 1}, GREATER_EQ, lo + 1)]


def _assert_exact(tab, row_idx, col):
    """Every division a pivot on (row_idx, col) makes is exact, which holds
    only while det keeps its relation to the basis determinant."""
    piv, det = abs(tab.rows[row_idx][col]), tab.det
    sign = 1 if tab.rows[row_idx][col] > 0 else -1
    prow = [sign * v for v in tab.rows[row_idx]]
    for i, row in enumerate(tab.rows + tab.costs):
        if i != row_idx:
            assert all((piv * a - row[col] * b) % det == 0 for a, b in zip(row, prow))


@settings(max_examples=150, deadline=None)
@given(
    extra_rows=_parent_rows,
    objective=_objective3,
    denominator=st.tuples(*[st.integers(0, 3)] * 3, st.integers(1, 4)),
    box=st.integers(1, 9),
    doubled_box=st.booleans(),
    data=st.data(),
)
def test_a_search_child_matches_a_solve_from_scratch(
    extra_rows, objective, denominator, box, doubled_box, data
):
    """A child solved from its parent's ratio optimum (solve_lfp with a
    parent: one dual re-solve for the linearized cost, then the ratio
    phase) is infeasible (None) where a solve from scratch is, and
    otherwise has its exact optimal value and a point that fits every row. No solve from scratch runs,
    every pivot divides exactly, the parent's carried ratio rows ride
    through every pivot of both phases equal to fresh reduced rows, and
    the parent is unchanged."""
    rows = _parent_system(extra_rows, box, doubled_box)
    utility = ratio(list(objective), 0, list(denominator[:3]), denominator[3])
    with carried_costs_checked() as checked:
        parent = solve_lfp(3, rows, utility)
        assume(parent is not None)
        state = parent.state
        new_rows = _child_rows(data, state)
        kept = (state.basis, [list(r) for r in state.rows], state.det, state.cols)
        pivot, before = Tableau.pivot, checked[0]

        def exact_pivot(tab, row_idx, col):
            _assert_exact(tab, row_idx, col)
            pivot(tab, row_idx, col)

        cold_solve = AssertionError("a solve from scratch ran")
        with mock.patch.object(
            simplex, "feasible_tableau", side_effect=cold_solve
        ), mock.patch.object(
            fractional, "feasible_tableau", side_effect=cold_solve
        ), mock.patch.object(Tableau, "pivot", exact_pivot):
            warm = solve_lfp(3, new_rows, utility, state)
        # The round trip through the parent's state checks its carried rows.
        assert checked[0] > before

    cold = solve_lfp(3, rows + new_rows, utility)
    assert (warm is None) == (cold is None)
    if warm is not None:
        assert warm.value == cold.value
        assert_fits(3, rows + new_rows, full_point(warm.state))
    assert kept == (state.basis, [list(r) for r in state.rows], state.det, state.cols)


_integer_row = st.builds(
    LinearRow.of,
    st.tuples(*[st.integers(-3, 3)] * 3),
    st.sampled_from((LESS_EQ, GREATER_EQ)),
    st.integers(-4, 12),
)


def _dual_child_rows(data, state):
    """One or two inequality rows appended to an optimal parent: a child's
    rows (_child_rows), maybe followed by a general integer row, or one or
    two general integer <= and >= rows over the structural variables."""
    if data.draw(st.booleans(), label="general rows only"):
        return data.draw(st.lists(_integer_row, min_size=1, max_size=2), label="rows")
    rows = _child_rows(data, state)
    return rows + data.draw(st.lists(_integer_row, max_size=2 - len(rows)), label="more")


@settings(max_examples=200, deadline=None)
@given(
    extra_rows=_parent_rows,
    objective=_objective3,
    box=st.none() | st.integers(1, 9),
    doubled_box=st.booleans(),
    data=st.data(),
)
def test_resolve_after_matches_solve_lp(extra_rows, objective, box, doubled_box, data):
    """A dual re-solve from an optimal parent plus appended inequality rows,
    as every child is solved, is infeasible (None) where solve_lp on the
    extended program is, and at an optimum has its exact value and a
    point that fits every row. Without the box row the parent's region may
    be unbounded, and such a draw is skipped. After every pivot, each division of which is exact, the
    carried cost row equals a fresh reduced row and stays <= 0, and its
    last entry is -det times the value. The parent is unchanged."""
    rows = _parent_system(extra_rows, box, doubled_box)
    program = LinearProgram.of(3, objective, rows)
    state = outcome(solve_lp, program)
    assume(isinstance(state, SimplexState))
    new_rows = _dual_child_rows(data, state)
    child = LinearProgram.of(3, objective, rows + new_rows)
    cost = list(program.cost)
    kept = (state.basis, [list(r) for r in state.rows], state.det, state.cols)
    pivot = Tableau.pivot

    def checked_pivot(tab, row_idx, col):
        _assert_exact(tab, row_idx, col)
        pivot(tab, row_idx, col)
        padded = cost + [0] * (tab.ncols - len(cost))
        (carried,) = tab.costs
        assert carried[:-1] == tab.reduced(padded)
        assert all(v <= 0 for v in carried[:-1])
        assert carried[-1] == -tab.value_of(padded)

    with mock.patch.object(Tableau, "pivot", checked_pivot):
        tab = resolve_after(state, new_rows)
    cold = solve_lp(child)
    assert kept == (state.basis, [list(r) for r in state.rows], state.det, state.cols)
    if tab is None:
        assert cold is None
        return
    warm = tab.state()
    assert cold is not None
    value = sum(c * v for c, v in zip(child.cost, warm.structural_point(3)))
    assert value == sum(c * v for c, v in zip(child.cost, cold.structural_point(3)))
    assert_fits(3, child.rows, full_point(warm))


@settings(max_examples=150, deadline=None)
@given(
    extra_rows=_parent_rows,
    objective=_objective3,
    child_objective=st.none() | _objective3,
    box=st.none() | st.integers(1, 9),
    doubled_box=st.booleans(),
    data=st.data(),
)
def test_optimize_after_feasible_after_matches_solve_lp(
    extra_rows, objective, child_objective, box, doubled_box, data
):
    """Phase two (optimize) on the tableau resolve_after returns, feasible
    after the appended rows, has the outcome of solve_lp on the extended
    program, infeasible (None) and UnboundedDomain included, and at an
    optimum its exact value and a point that fits every row. The carried cost row equals a
    fresh reduced row, then -det times the value, after every pivot, every
    append and the round trip through the parent's state, on the parent's
    solve and the child's. A child objective other than the
    parent's can be unbounded where the parent's was not."""
    rows = _parent_system(extra_rows, box, doubled_box)
    program = LinearProgram.of(3, objective, rows)
    with carried_costs_checked() as checked:
        state = outcome(solve_lp, program)
        assume(isinstance(state, SimplexState))
        new_rows = _child_rows(data, state)
        child = LinearProgram.of(3, child_objective or objective, rows + new_rows)
        tab = resolve_after(state, new_rows)
        warm = None if tab is None else outcome(simplex.optimize, tab, child.cost)
    assert checked[0] > 0
    cold = outcome(solve_lp, child)
    if warm is None or warm is UNBOUNDED:
        assert cold is warm
        return
    value = sum(c * v for c, v in zip(child.cost, warm.structural_point(3)))
    assert value == sum(c * v for c, v in zip(child.cost, cold.structural_point(3)))
    assert_fits(3, child.rows, full_point(warm))


class TestInfeasibleAfter:
    """Rows appended to a solved parent, which may leave its optimum
    infeasible: resolve_after starts only from an optimal parent, the only
    state there is."""

    def test_needs_an_optimal_state(self):
        # The paths that once built an infeasible or unbounded parent build
        # none: feasible_tableau returns None, optimize raises.
        rows = [LinearRow.of({0: 1}, GREATER_EQ, 3), LinearRow.of({0: 1}, LESS_EQ, 1)]
        assert simplex.feasible_tableau(1, rows) is None
        with pytest.raises(UnboundedDomain):
            simplex.optimize(simplex.feasible_tableau(1, rows[:1]), [1])


class TestResolveAfter:
    """resolve_after: a dual re-solve of a solved system plus rows."""

    ROWS = [LinearRow.of({0: -1, 1: 4}, LESS_EQ, 0), LinearRow.of({0: 2, 1: -1}, LESS_EQ, 8)]
    COST = [1, 1]

    def solved(self):
        return solve_lp(LinearProgram.of(2, self.COST, self.ROWS))

    def test_a_branch_row_needs_one_dual_pivot(self):
        # At (32/7, 8/7) x0 <= 4 is violated; one dual pivot reaches (4, 1),
        # where x0's slack is basic at 0 and x0 <= 4's slack is nonbasic.
        state = self.solved()
        with mock.patch.object(Tableau, "pivot", autospec=True, side_effect=Tableau.pivot) as piv:
            child = resolve_after(state, [LinearRow.of({0: 1}, LESS_EQ, 4)])
        assert piv.call_count == 1
        assert full_point(child.state()) == (4, 1, 0, 1, 0)
        assert resolve_after(state, [LinearRow.of({1: 1}, GREATER_EQ, 2)]) is None

    def test_needs_inequality_rows_and_an_optimal_parent(self):
        state = self.solved()
        with pytest.raises(NotOptimal):
            # The opposite of the parent's objective, which its basis is
            # not optimal for.
            opposite = lambda tab: [-v for v in tab.costs[0]]  # noqa: E731
            resolve_after(state, [LinearRow.of({0: 1}, LESS_EQ, 4)], opposite)
        # An infeasible system has no state to re-solve from.
        assert solve_lp(lp(1, {0: 1}, [({0: 1}, GREATER_EQ, 3), ({0: 1}, LESS_EQ, 1)])) is None

    def test_rows_reference_existing_variables_only(self):
        # The parent has x0-x3; the appended row's own slack would be x4.
        state = self.solved()
        with pytest.raises(ValueError):
            resolve_after(state, [LinearRow.of({4: 1}, LESS_EQ, 1)])

    def test_an_appended_rows_slack_is_that_of_the_row_as_written(self):
        # x0/2 <= 3 at x0 = 32/7 has slack 3 - 16/7 = 5/7, appended or
        # solved from scratch; its integer-scaled form x0 <= 6 would give
        # 10/7.
        state = self.solved()
        half = LinearRow.of({0: Fraction(1, 2)}, LESS_EQ, 3)
        full = full_point(resolve_after(state, [half]).state())
        assert full[4] == Fraction(5, 7)
        assert_fits(2, self.ROWS + [half], full)
        cold = solve_lp(LinearProgram.of(2, self.COST, self.ROWS + [half]))
        assert full_point(cold) == full

    def test_a_rising_value_is_an_invariant_violation(self):
        # A pivot that lands on a point of higher value breaks dual simplex.
        state, pivot = self.solved(), Tableau.pivot

        def rising(tab, row_idx, col):
            pivot(tab, row_idx, col)
            tab.costs[0][-1] -= tab.det

        with mock.patch.object(Tableau, "pivot", rising), pytest.raises(InvariantViolated):
            resolve_after(state, [LinearRow.of({0: 1}, LESS_EQ, 4)])


_fraction_row = st.tuples(
    st.tuples(*[st.fractions(-4, 4, max_denominator=4)] * 3),
    st.sampled_from((LESS_EQ, GREATER_EQ)),
    st.fractions(-2, 12, max_denominator=4),
)


@settings(max_examples=150, deadline=None)
@given(
    extra_rows=_parent_rows,
    objective=_objective3,
    box=st.integers(1, 9),
    doubled_box=st.booleans(),
    first=_fraction_row,
    second=st.tuples(
        st.fractions(-3, 3, max_denominator=3).filter(bool),
        st.integers(0, 2),
        st.fractions(-2, 2, max_denominator=3),
        st.sampled_from((LESS_EQ, GREATER_EQ)),
        st.fractions(-2, 6, max_denominator=3),
    ),
)
def test_a_row_over_an_appended_slack_means_the_same_in_one_call_or_two(
    extra_rows, objective, box, doubled_box, first, second
):
    """A fractional-data row, then a row over that row's slack, appended in
    one resolve_after call or in two chained ones (each solved to its
    optimum) are infeasible (None) where solve_lp on all the rows is, and
    otherwise give its exact value and a point that fits every row as
    written. The carried objective row
    equals a fresh reduced row, then -det times the value, across each
    append's row scale, every pivot and each state round trip."""
    rows = _parent_system(extra_rows, box, doubled_box)
    coeffs, relation, rhs = first
    fractional = LinearRow.of(coeffs, relation, rhs)
    assume(fractional.scale != 1)

    def solved(parent, new_rows):
        tab = resolve_after(parent, new_rows)
        return None if tab is None else tab.state()

    with carried_costs_checked() as checked:
        state = solve_lp(LinearProgram.of(3, objective, rows))
        assume(state is not None)
        on_slack, j, on_j, relation, rhs = second
        over_slack = LinearRow.of({j: on_j, state.num_vars: on_slack}, relation, rhs)
        one_call = solved(state, [fractional, over_slack])
        first_call = solved(state, [fractional])
        chained = first_call
        if first_call is not None:
            chained = solved(first_call, [over_slack])
    assert checked[0] > 0
    program = LinearProgram.of(3, objective, rows + [fractional, over_slack])
    cold = solve_lp(program)
    for warm in (one_call, chained):
        assert (warm is None) == (cold is None)
        if warm is not None:
            value = sum(c * v for c, v in zip(objective, full_point(warm)))
            assert value == sum(c * v for c, v in zip(objective, full_point(cold)))
            assert_fits(3, program.rows, full_point(warm))


def _standard_form(num_vars, rows):
    """[A | b] as Fractions over every variable: each row gets its own
    slack column in row order, +1 for <= and -1 for >=, the slack of the
    row as written."""
    standard = []
    for i, row in enumerate(rows):
        dense = [Fraction(0)] * (num_vars + len(rows))
        for j, c in row.coeffs:
            dense[j] = Fraction(c, row.scale)
        dense[num_vars + i] = 1 if row.relation == LESS_EQ else -1
        standard.append(dense + [Fraction(row.rhs, row.scale)])
    return standard


def _integer_basis_det(state, num_vars, rows):
    """|det B| for the state's basis columns B of the integer standard form:
    each row's integer data, with its slack's entry +scale for <= and
    -scale for >=, by Fraction elimination."""
    matrix = []
    for i, row in enumerate(rows):
        dense = [0] * (num_vars + len(rows))
        for j, c in row.coeffs:
            dense[j] = c
        dense[num_vars + i] = row.scale if row.relation == LESS_EQ else -row.scale
        matrix.append([Fraction(dense[var]) for var in state.basis])
    det = Fraction(1)
    for k in range(len(matrix)):
        p = next(i for i in range(k, len(matrix)) if matrix[i][k])
        matrix[k], matrix[p] = matrix[p], matrix[k]
        det *= matrix[k][k]
        for i in range(k + 1, len(matrix)):
            factor = matrix[i][k] / matrix[k][k]
            matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[k])]
    return abs(det)


def _scaled_inverse_system(state, standard):
    """det * B^-1 [A | b], B the columns of the state's basis in basis
    order, by Fraction Gauss-Jordan elimination."""
    m = len(standard)
    aug = [[row[var] for var in state.basis] + row for row in standard]
    for k in range(m):
        p = next(i for i in range(k, m) if aug[i][k])
        aug[k], aug[p] = aug[p], aug[k]
        aug[k] = [v / aug[k][k] for v in aug[k]]
        for i in range(m):
            if i != k and aug[i][k]:
                factor = aug[i][k]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[k])]
    return [[state.det * v for v in row[m:]] for row in aug]


def _expanded(state):
    """The state's dictionary at full width: basic column basis[i] is det
    times the unit column e_i, and column cols[k] holds each row's entry k."""
    full = []
    for var, row in zip(state.basis, state.rows):
        dense = [0] * state.num_vars
        dense[var] = state.det
        for col, v in zip(state.cols, row):
            dense[col] = v
        full.append(dense + row[-1:])
    return full


@settings(max_examples=80, deadline=None)
@given(
    extra_rows=_parent_rows,
    objective=_objective3,
    box=st.none() | st.integers(1, 9),
    doubled_box=st.booleans(),
    data=st.data(),
)
def test_the_dictionary_is_the_scaled_inverse_basis_system(
    extra_rows, objective, box, doubled_box, data
):
    """A solved state, from scratch or by a dual re-solve from its parent's
    tableau, expanded to full width equals det * B^-1 [A | b] over the
    standardized rows, computed apart from the pivots; its columns and basis
    split the variables between them. No row is ever dropped, so det is
    exactly |det B| over the integer standard form."""
    rows = _parent_system(extra_rows, box, doubled_box)
    state = outcome(solve_lp, LinearProgram.of(3, objective, rows))
    assume(isinstance(state, SimplexState))
    new_rows = _child_rows(data, state)
    child = LinearProgram.of(3, objective, rows + new_rows)
    tab = resolve_after(state, new_rows)
    solved = [(state, rows), (solve_lp(child), child.rows)]
    if tab is not None:
        solved.append((tab.state(), child.rows))
    for final, system in solved:
        if final is None:
            continue
        assert sorted(final.basis + final.cols) == list(range(final.num_vars))
        assert _expanded(final) == _scaled_inverse_system(final, _standard_form(3, system))
        assert final.det == _integer_basis_det(final, 3, system)


@settings(max_examples=60, deadline=None)
@given(
    extra_rows=_parent_rows,
    objective=_objective3,
    box=st.integers(1, 9),
    doubled_box=st.booleans(),
    data=st.data(),
)
def test_an_all_inequality_dictionary_keeps_n_columns_at_any_depth(
    extra_rows, objective, box, doubled_box, data
):
    """Each child appends rows and slacks, but over 3 structural variables
    the dictionary keeps 3 columns at every optimum down a chain of
    children, while only its row count grows."""
    state = solve_lp(LinearProgram.of(3, objective, _parent_system(extra_rows, box, doubled_box)))
    assume(state is not None)
    for _ in range(4):
        assert len(state.cols) == 3 and len(state.rows) == state.num_vars - 3
        tab = resolve_after(state, _child_rows(data, state))
        if tab is None:
            break
        state = tab.state()
