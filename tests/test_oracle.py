import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effset.errors import EnumerationBudgetExceeded, UnboundedDomain
from effset.generator import GeneratorConfig, generate
from effset.model import instance, ratio
from effset.simplex import LinearProgram, solve_lp
from effset.oracle import (
    DEFAULT_BUDGET,
    efficient_sets,
    enumerate_feasible,
    maximal_points,
    variable_upper_bounds,
)

from conftest import (
    DEMO_CRITERIA_EFFICIENT,
    DEMO_FEASIBLE,
    DEMO_SOLUTION_SET,
    DEMO_UTILITY_EFFICIENT,
)


def tiny(a, b):
    objectives = [ratio([1, 0], 0, [0, 0], 1), ratio([0, 1], 0, [0, 0], 1)]
    return instance(a, b, objectives, objectives)


class TestBounds:
    def test_demo_bounds(self, demo):
        assert variable_upper_bounds(demo) == [Fraction(32, 7), Fraction(8, 7)]

    def test_empty_region(self):
        inst = tiny([[1, 1], [-1, -1]], [1, -3])
        assert variable_upper_bounds(inst) is None
        assert enumerate_feasible(inst) == []

    def test_unbounded_region(self):
        inst = tiny([[-1, 0]], [0])
        with pytest.raises(UnboundedDomain):
            variable_upper_bounds(inst)


class TestEnumeration:
    def test_demo_points_in_lexicographic_order(self, demo):
        points = enumerate_feasible(demo)
        assert points == sorted(DEMO_FEASIBLE)

    def test_budget_refusal(self, demo):
        # The walk visits 11 prefixes: x0 in 0..4, then x1's feasible
        # values, one for each x0 < 4 and two for x0 = 4 (the six points).
        with pytest.raises(EnumerationBudgetExceeded):
            enumerate_feasible(demo, budget=10)
        assert len(enumerate_feasible(demo, budget=11)) == len(DEMO_FEASIBLE)

    def test_budget_follows_the_walk_not_the_box(self):
        """3x10x15 seed 0: a box of more than the default budget of points
        (25.5 million) holds 870 feasible points, which the walk lists."""
        inst = generate(GeneratorConfig(num_vars=15, num_constraints=10, num_criteria=3, seed=0))
        box = math.prod(math.floor(v) + 1 for v in variable_upper_bounds(inst))
        assert box > DEFAULT_BUDGET
        assert len(enumerate_feasible(inst)) == 870

    def test_three_point_segment(self):
        inst = tiny([[1, 0], [0, 1]], [2, 0])
        assert enumerate_feasible(inst) == [(0, 0), (1, 0), (2, 0)]

    @pytest.mark.parametrize(
        "a, b, points",
        [
            # The origin alone.
            ([[1, 1]], [0], [(0, 0)]),
            # 1/3 <= x1 <= 2/3 over 0 <= x0 <= 1: a nonempty relaxation whose
            # row on x1 rules out the whole box before the walk starts.
            ([[1, 0], [0, 3], [0, -3]], [1, 2, -1], []),
            # x1 >= x0 - 1 lifts the second coordinate's lower end.
            ([[1, 1], [1, -1]], [3, 1], [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (2, 1)]),
            # Fractional data: x0 + x1 <= 5/2 and x0 - x1/2 >= 1/2.
            ([[1, 1], ["-1", "1/2"]], ["5/2", "-1/2"], [(1, 0), (1, 1), (2, 0)]),
        ],
    )
    def test_small_regions(self, a, b, points):
        assert enumerate_feasible(tiny(a, b)) == points


def in_region(inst, point) -> bool:
    """Ax <= b at the point, summed in the instance's own Fractions."""
    return all(
        sum(c * v for c, v in zip(row, point)) <= rhs
        for row, rhs in zip(inst.a_matrix, inst.b_vector)
    )


@st.composite
def box_instances(draw):
    """One to three variables under a row of coefficients in [1/2, 4], which
    keeps the box small, and up to three rows of any sign, zeros and
    fractions included, whose right-hand sides may be negative: empty
    relaxations, relaxations with no lattice point and single points all
    occur."""
    n = draw(st.integers(1, 3))
    positive = st.fractions(min_value=Fraction(1, 2), max_value=4, max_denominator=3)
    coef = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    a = [[draw(positive) for _ in range(n)]]
    b = [draw(st.fractions(min_value=-1, max_value=6, max_denominator=3))]
    for _ in range(draw(st.integers(0, 3))):
        a.append([draw(coef) for _ in range(n)])
        b.append(draw(st.fractions(min_value=-4, max_value=4, max_denominator=3)))
    objectives = [ratio([0] * n, 1, [0] * n, 1)] * 2
    return instance(a, b, objectives, objectives)


@settings(max_examples=300, deadline=None)
@given(box_instances())
def test_walk_matches_from_scratch_bounds_and_the_box_filter(inst):
    """variable_upper_bounds equals one solve_lp from scratch per variable,
    and the walk lists exactly the box points the literal filter keeps, in
    the same order."""
    n = inst.variable_count
    states = [solve_lp(LinearProgram.of(n, {j: 1}, inst.rows)) for j in range(n)]
    if states[0] is None:
        assert variable_upper_bounds(inst) is None
        assert enumerate_feasible(inst) == []
        return
    bounds = [state.structural_point(n)[j] for j, state in enumerate(states)]
    assert variable_upper_bounds(inst) == bounds
    box = itertools.product(*(range(math.floor(v) + 1) for v in bounds))
    assert enumerate_feasible(inst) == [point for point in box if in_region(inst, point)]


class TestMaximalPoints:
    def test_demo_families(self, demo):
        points = enumerate_feasible(demo)
        assert set(maximal_points(points, demo.criteria)) == DEMO_CRITERIA_EFFICIENT
        assert set(maximal_points(points, demo.utilities)) == DEMO_UTILITY_EFFICIENT

    def test_empty_input(self, demo):
        assert maximal_points([], demo.criteria) == []

    def test_preserves_input_order(self, demo):
        points = list(reversed(enumerate_feasible(demo)))
        kept = maximal_points(points, demo.criteria)
        assert kept == [p for p in points if p in DEMO_CRITERIA_EFFICIENT]

    def test_equal_images_never_dominate_each_other(self):
        # Two distinct points with identical images must both be kept.
        inst = tiny([[1, 1]], [2])
        same = [ratio([0, 0], 5, [0, 0], 7), ratio([0, 0], 1, [0, 0], 1)]
        kept = maximal_points([(0, 0), (1, 0), (0, 1)], same)
        assert kept == [(0, 0), (1, 0), (0, 1)]


class TestEfficientSets:
    def test_demo(self, demo):
        x_e, x_ep, both = efficient_sets(demo)
        assert x_e == sorted(DEMO_CRITERIA_EFFICIENT)
        assert x_ep == sorted(DEMO_UTILITY_EFFICIENT)
        assert both == sorted(DEMO_SOLUTION_SET)

    def test_intersection_is_subset_of_both(self, demo):
        x_e, x_ep, both = efficient_sets(demo)
        assert set(both) == set(x_e) & set(x_ep)
