from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effset.errors import AssumptionViolated, NotOptimal, UnboundedDomain
import effset.fractional as fractional
from effset.fractional import (
    fractional_gradient,
    maximize,
    solve_lfp,
    solve_lfp_cc,
)
from effset.model import AffineForm, evaluate, ratio
from effset.simplex import GREATER_EQ, LESS_EQ, LinearRow, Tableau, reduced_row

from conftest import DEMO_A, DEMO_B, assert_fits, full_point


def demo_rows():
    return tuple(
        LinearRow.of({j: c for j, c in enumerate(row) if c}, LESS_EQ, rhs)
        for row, rhs in zip(DEMO_A, DEMO_B)
    )


class TestDemoRootNode:
    """The two-constraint example region has a unique ratio maximum for the
    first utility at the fractional vertex (32/7, 8/7), where both slacks
    are nonbasic. All gradient values below were computed by hand from the
    final tableau."""

    def test_optimum(self, demo):
        result = solve_lfp(2, demo_rows(), demo.utilities[0])
        assert result.point == (Fraction(32, 7), Fraction(8, 7))
        assert result.value == Fraction(-45, 79)

    def test_utility_gradients(self, demo):
        state = solve_lfp(2, demo_rows(), demo.utilities[0]).state
        assert set(state.cols) == {2, 3}
        gamma1 = fractional_gradient(state, demo.utilities[0])
        gamma2 = fractional_gradient(state, demo.utilities[1])
        assert gamma1 == {2: Fraction(-37, 7), 3: Fraction(-24, 7)}
        assert gamma2 == {2: Fraction(-80, 7), 3: Fraction(5)}

    def test_criterion_gradients(self, demo):
        state = solve_lfp(2, demo_rows(), demo.utilities[0]).state
        lambdas = [fractional_gradient(state, c) for c in demo.criteria]
        assert lambdas[0] == {2: Fraction(-2, 7), 3: Fraction(-4, 7)}
        assert lambdas[1] == {2: Fraction(1, 7), 3: Fraction(8, 7)}
        assert lambdas[2] == {2: Fraction(-1, 7), 3: Fraction(3, 7)}

    def test_floor_subproblem(self, demo):
        rows = demo_rows() + (LinearRow.of({0: 1}, LESS_EQ, 4),)
        result = solve_lfp(2, rows, demo.utilities[0])
        assert result.point == (4, 1)
        assert result.value == Fraction(-3, 5)

    def test_round_over_slack_coordinate(self, demo):
        # After x0 <= 4 (slack index 4), requiring x4 >= 1 removes the
        # face x0 = 4; the maximum moves to the fractional vertex (3, 3/4).
        rows = demo_rows() + (
            LinearRow.of({0: 1}, LESS_EQ, 4),
            LinearRow.of({4: 1}, GREATER_EQ, 1),
        )
        result = solve_lfp(2, rows, demo.utilities[0])
        assert result.point == (3, Fraction(3, 4))
        assert result.value == Fraction(-21, 31)
        # Branching that vertex down on x1 reaches the integer point (3, 0).
        floor_rows = rows + (LinearRow.of({1: 1}, LESS_EQ, 0),)
        floored = solve_lfp(2, floor_rows, demo.utilities[0])
        assert floored.point == (3, 0)
        assert floored.value == Fraction(-6, 7)


# Children of the demo's root: a floor and two ceiling branch rows on x0,
# and a pair of round rows over the root's nonbasic slacks.
CHILDREN = [
    (LinearRow.of({0: 1}, LESS_EQ, 4),),
    (LinearRow.of({0: 1}, GREATER_EQ, 5),),
    (LinearRow.of({0: 1}, GREATER_EQ, 9),),
    (LinearRow.of({2: 1, 3: 1}, GREATER_EQ, 1), LinearRow.of({3: 1}, GREATER_EQ, 1)),
]


def _warm_child_matches_cold(utility, child):
    root = solve_lfp(2, demo_rows(), utility)
    rows = demo_rows() + child
    warm = solve_lfp(2, child, utility, root.state)
    cold = solve_lfp(2, rows, utility)
    assert (warm is None) == (cold is None)
    if warm is not None:
        assert warm.value == cold.value
        assert_fits(2, rows, full_point(warm.state))
        assert evaluate(utility, warm.point) == warm.value


class TestBehaviors:
    def test_infeasible_system(self, demo):
        rows = demo_rows() + (
            LinearRow.of({0: 1}, GREATER_EQ, 9),
        )
        assert solve_lfp(2, rows, demo.utilities[0]) is None

    def test_unbounded_domain_raises(self):
        rows = (LinearRow.of({1: 1}, LESS_EQ, 1),)
        objective = ratio([1, 0], 0, [0, 0], 1)
        with pytest.raises(UnboundedDomain):
            solve_lfp(2, rows, objective)
        with pytest.raises(UnboundedDomain):
            solve_lfp_cc(2, rows, objective)

    def test_sign_changing_denominator_raises(self):
        rows = (LinearRow.of({0: 1}, LESS_EQ, 2),)
        objective = ratio([1], 0, [-1], 1)
        with pytest.raises(AssumptionViolated):
            solve_lfp(1, rows, objective)

    @pytest.mark.parametrize("child", CHILDREN)
    def test_parent_state_leaves_the_answer_unchanged(self, demo, child):
        # x0 >= 5 and x0 >= 9 are infeasible children of the root (32/7, 8/7).
        # Solved from the root's state, a child is infeasible (None) where a
        # solve from scratch is, and otherwise has its value; where optima
        # tie, the point may differ.
        _warm_child_matches_cold(demo.utilities[0], child)

    @pytest.mark.parametrize("child", CHILDREN)
    @pytest.mark.parametrize("objective", ["second utility", "constant"])
    def test_other_ratios_leave_the_answer_unchanged(self, demo, child, objective):
        # The second utility's root is (0, 0); a constant ratio's linearized
        # cost is zero, so every basis is dual feasible for it.
        utility = {"second utility": demo.utilities[1], "constant": ratio([0, 0], 3, [0, 0], 2)}
        _warm_child_matches_cold(utility[objective], child)

    def test_linearized_cost_prices_the_parents_gradient(self, demo, monkeypatch):
        # P = -x0 + x1 - 3 and Q = 2x0 + x1 + 1 are -45/7 and 79/7 at the
        # root (32/7, 8/7), so q*P - p*Q is a positive multiple of
        # 79 (-1, 1) + 45 (2, 1) = (11, 124), whose gcd is 1. Its reduced
        # row is 79 nu + 45 mu, 7 times gamma = (-37/7, -24/7). A child's
        # dual re-solve prices it off the root's carried rows, p and q
        # read off their value entries: a positive multiple of the reduced
        # row of (11, 124) followed by -det times its value, 192.
        state = solve_lfp(2, demo_rows(), demo.utilities[0]).state
        reduced, _ = reduced_row(state, AffineForm.of([11, 124]))
        assert reduced == {2: -37, 3: -24}
        assert fractional_gradient(state, demo.utilities[0]) == {
            j: v / 7 for j, v in reduced.items()
        }
        prices = []

        def recording(parent, rows, price):
            prices.append(price)
            return resolve_after(parent, rows, price)

        resolve_after = fractional.resolve_after
        monkeypatch.setattr(fractional, "resolve_after", recording)
        solve_lfp(2, (LinearRow.of({0: 1}, LESS_EQ, 4),), demo.utilities[0], state)
        tab = Tableau.of_state(state)
        linearized = [*tab.reduced([11, 124, 0, 0]), -tab.value_of([11, 124, 0, 0])]
        assert linearized == [tab.det * reduced[j] for j in tab.cols] + [-192 * tab.det]
        (price,) = prices
        priced = price(tab)
        factor = priced[0] // linearized[0]
        assert factor > 0
        assert priced == [factor * v for v in linearized]

    def test_a_parent_solved_for_another_ratio_is_refused(self, demo):
        # The second utility's root (0, 0) is not optimal for the first:
        # its gamma at x0 is 6 > 0, so the dual re-solve has no start.
        other = solve_lfp(2, demo_rows(), demo.utilities[1]).state
        assert fractional_gradient(other, demo.utilities[0])[0] > 0
        with pytest.raises(NotOptimal):
            solve_lfp(2, (LinearRow.of({0: 1}, LESS_EQ, 4),), demo.utilities[0], other)

    def test_gradient_certificate_at_optimum(self, demo):
        for utility in demo.utilities:
            result = solve_lfp(2, demo_rows(), utility)
            gamma = fractional_gradient(result.state, utility)
            assert all(v <= 0 for v in gamma.values())


coeff = st.integers(-6, 6)


@settings(max_examples=80, deadline=None)
@given(
    a=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=3),
    b=st.lists(st.integers(3, 15), min_size=3, max_size=3),
    lower=st.integers(0, 6),
    p=st.tuples(coeff, coeff, coeff),
    q=st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 8)),
)
def test_pivot_and_transform_solvers_agree(a, b, lower, p, q):
    """The adjacent-vertex method and the variable-change method share no
    code; on bounded regions with positive denominators both must find the
    rows infeasible (None) or return the same exact value."""
    rows = [
        LinearRow.of({0: r[0], 1: r[1]}, LESS_EQ, rhs)
        for r, rhs in zip(a, b)
    ] + [LinearRow.of({0: 1, 1: 1}, GREATER_EQ, lower)]
    objective = ratio([p[0], p[1]], p[2], [q[0], q[1]], q[2])
    direct = solve_lfp(2, rows, objective)
    value = solve_lfp_cc(2, rows, objective)
    assert (direct is None) == (value is None)
    if value is not None:
        assert direct.value == value
        assert evaluate(objective, direct.point) == value


objective_data = st.tuples(
    st.tuples(coeff, coeff, coeff), st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 8))
)


@settings(max_examples=80, deadline=None)
@given(
    a=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=3),
    b=st.lists(st.integers(3, 15), min_size=3, max_size=3),
    lower=st.integers(0, 6),
    companion=objective_data,
    appended=st.lists(
        st.tuples(st.integers(0, 5), st.sampled_from((LESS_EQ, GREATER_EQ)), st.integers(0, 6)),
        min_size=1,
        max_size=2,
    ),
)
def test_continuation_matches_a_solve_from_scratch(a, b, lower, companion, appended):
    """From the companion's own optimum, maximize re-solves appended rows
    (bounds on a structural or slack variable) to the maximum a solve from
    scratch over the extended system reaches, ends at a vertex that attains
    it and leaves the optimum's state as it was; rows that empty the region
    give None."""
    rows = [
        LinearRow.of({0: r[0], 1: r[1]}, LESS_EQ, rhs)
        for r, rhs in zip(a, b)
    ] + [LinearRow.of({0: 1, 1: 1}, GREATER_EQ, lower)]
    p, q = companion
    other = ratio([p[0], p[1]], p[2], [q[0], q[1]], q[2])
    result = solve_lfp(2, rows, other)
    if result is None:
        return
    optimum = result.state
    basis, matrix, point = optimum.basis, [list(r) for r in optimum.rows], full_point(optimum)
    extra = [LinearRow.of({j % optimum.num_vars: 1}, rel, rhs) for j, rel, rhs in appended]
    fresh = solve_lfp(2, rows + extra, other)
    solved = maximize(2, extra, other, parent=optimum)
    assert optimum.basis == basis
    assert [list(r) for r in optimum.rows] == matrix
    assert full_point(optimum) == point
    if fresh is None:
        assert solved is None
        return
    value, final = solved
    assert value == fresh.value
    assert evaluate(other, final.structural_point(2)) == value
    assert final.num_vars == optimum.num_vars + len(extra)


def test_appended_rows_that_empty_the_region_are_refused():
    """The demo region has x0 <= 32/7, so x0 >= 5 leaves nothing to maximize
    over."""
    utility = ratio([-1, 1], -3, [2, 1], 1)
    optimum = solve_lfp(2, demo_rows(), utility).state
    assert maximize(2, [LinearRow.of({0: 1}, GREATER_EQ, 5)], utility, parent=optimum) is None


def test_appended_rows_need_an_optimum_of_the_objective():
    """A re-solve over appended rows starts from the objective's own
    optimum; a state solved for another objective is refused."""
    first, other = ratio([-1, 1], -3, [2, 1], 1), ratio([-4, 3], 1, [2, 1], 2)
    state = solve_lfp(2, demo_rows(), first).state
    with pytest.raises(NotOptimal):
        maximize(2, [LinearRow.of({0: 1}, LESS_EQ, 3)], other, parent=state)
