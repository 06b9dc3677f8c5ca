from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from effset.efficiency import is_in_solution_set
from effset.errors import LengthMismatch, ZeroDenominator
from effset.model import (
    AffineForm,
    ProblemInstance,
    as_fraction,
    at_least,
    dominates,
    evaluate,
    image,
    instance,
    integers,
    is_feasible,
    pareto_filter,
    ratio,
    row_gaps,
)
from effset.simplex import GREATER_EQ, LESS_EQ, LinearRow

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)

# Image coordinates as the program meets them, ints and Fractions mixed,
# drawn from a small range so that ties and dominance are common.
coordinates = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)


@st.composite
def vector_lists(draw, min_size=1, max_size=20):
    """Vectors of one width in 1-5, some of them repeated."""
    width = draw(st.integers(min_value=1, max_value=5))
    vector = st.tuples(*[coordinates] * width)
    pool = draw(st.lists(vector, min_size=1, max_size=6))
    return draw(
        st.lists(st.one_of(vector, st.sampled_from(pool)), min_size=min_size, max_size=max_size)
    )


def fraction_at_least(a, b) -> bool:
    """a >= b componentwise by Fraction's own comparison, as a reference
    independent of the integer kernel."""
    return not any(Fraction(x) < Fraction(y) for x, y in zip(a, b))


def fraction_dominates(a, b) -> bool:
    return fraction_at_least(a, b) and any(Fraction(x) > Fraction(y) for x, y in zip(a, b))


def pairwise_filter(entries):
    """The plain O(N^2) filter: each point whose vector no entry dominates."""
    vectors = [vec for _, vec in entries]
    return [
        point
        for point, vec in entries
        if not any(fraction_dominates(other, vec) for other in vectors)
    ]


class TestAffineForm:
    def test_evaluates_with_constant(self):
        form = AffineForm.of([2, -3], 5)
        assert form.at((1, 1)) == 4

    def test_coerces_mixed_inputs(self):
        form = AffineForm.of([1, "1/2"], Fraction(1, 3))
        assert form.at((0, 2)) == Fraction(4, 3)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(LengthMismatch):
            AffineForm.of([1, 2]).at((1,))

    @given(
        st.lists(rationals, min_size=1, max_size=5),
        rationals,
        st.data(),
    )
    def test_matches_direct_dot_product(self, coeffs, constant, data):
        point = data.draw(
            st.lists(rationals, min_size=len(coeffs), max_size=len(coeffs))
        )
        form = AffineForm.of(coeffs, constant)
        expected = sum(c * v for c, v in zip(coeffs, point)) + constant
        assert form.at(point) == expected


class TestIntegers:
    def test_values_become_ints_over_the_lcm_of_their_denominators(self):
        assert integers([2, "-4/7", "1/10", Fraction(3, 5)]) == ([140, -40, 7, 42], 70)
        assert integers([]) == ([], 1)

    def test_floats_are_refused(self):
        """Over the one row 3 x0 + 3 x1 <= 1, the floats below sum to 1 in
        float arithmetic, yet their exact values violate the row: a point
        check refuses them as every builder does, and decides a point of
        Fractions exactly, on the row and just past it."""
        obj = ratio([1, 0], 0, [0, 0], 1)
        inst = instance([[3, 3]], [1], [obj, obj], [obj, obj])
        for build in (
            lambda: integers([1, 0.1]),
            lambda: as_fraction(0.5),
            lambda: ratio([0.1, 1], 0, [0, 1], 1),
            lambda: LinearRow.of({0: 2.5}, LESS_EQ, 1),
            lambda: is_feasible(inst, (0.0033333333333333335, 0.33)),
            lambda: is_feasible(inst, (0, 0.0)),
            lambda: is_in_solution_set(inst, (0.0, 0.0)),
        ):
            with pytest.raises(TypeError, match="is a float"):
                build()
        assert is_feasible(inst, (Fraction(1, 6), Fraction(1, 6)))
        assert not is_feasible(inst, (Fraction(1, 6), Fraction(1, 6) + Fraction(1, 10**30)))


class TestObjectives:
    def test_evaluate(self):
        obj = ratio([1, 0], -4, [0, -1], 2)
        assert evaluate(obj, (4, 1)) == 0
        assert evaluate(obj, (0, 0)) == -2

    def test_zero_denominator_raises(self):
        obj = ratio([1], 0, [1], -1)
        for point in ((1,), (Fraction(1),)):
            with pytest.raises(ZeroDenominator):
                evaluate(obj, point)

    def test_mismatched_spaces_rejected(self):
        with pytest.raises(LengthMismatch):
            ratio([1, 2], 0, [1], 1)

    @given(
        st.lists(rationals, min_size=1, max_size=5),
        rationals,
        st.data(),
    )
    def test_integer_points_agree_with_the_fraction_path(self, coeffs, constant, data):
        """An all-int point goes into the integer kernel as it is, the
        same point as Fractions through `integers`: both give the ratio of
        the two forms' values, alone and in an image."""
        n = len(coeffs)
        den_coeffs = data.draw(st.lists(rationals, min_size=n, max_size=n))
        den_constant = data.draw(rationals)
        point = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)))
        obj = ratio(coeffs, constant, den_coeffs, den_constant)
        q = sum(d * v for d, v in zip(den_coeffs, point)) + den_constant
        as_fractions = tuple(Fraction(v) for v in point)
        if q == 0:
            for at in (point, as_fractions):
                with pytest.raises(ZeroDenominator):
                    evaluate(obj, at)
            return
        p = sum(c * v for c, v in zip(coeffs, point)) + constant
        assert evaluate(obj, point) == evaluate(obj, as_fractions) == p / q
        assert image([obj, obj], point) == image([obj, obj], as_fractions) == (p / q, p / q)
        assert obj.numerator.scaled_at(point) == p * obj.numerator.scaled[2]

    @given(
        st.lists(rationals, min_size=1, max_size=5),
        rationals,
        st.booleans(),
        st.data(),
    )
    def test_rational_points_match_fraction_arithmetic(self, coeffs, constant, vanish, data):
        """At a point with some denominator above 1, brought to ints over a
        common denominator (`integers`), `evaluate`, `image` and
        `AffineForm.at` equal plain Fraction arithmetic; a denominator that
        vanishes there (drawn on purpose) raises ZeroDenominator, and a
        point of the wrong length LengthMismatch."""
        n = len(coeffs)
        den_coeffs = data.draw(st.lists(rationals, min_size=n, max_size=n))
        den = data.draw(st.integers(2, 12))
        point = [Fraction(v, den) for v in data.draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n))]
        assume(any(v.denominator > 1 for v in point))
        q = sum(d * v for d, v in zip(den_coeffs, point))
        den_constant = -q if vanish else data.draw(rationals)
        q += den_constant
        obj = ratio(coeffs, constant, den_coeffs, den_constant)
        p = sum(c * v for c, v in zip(coeffs, point)) + constant
        assert obj.numerator.at(point) == p
        assert obj.denominator.at(point) == q
        for wrong in (point[:-1], point + [Fraction(1, den)]):
            with pytest.raises(LengthMismatch):
                evaluate(obj, wrong)
            with pytest.raises(LengthMismatch):
                obj.numerator.at(wrong)
        if q == 0:
            with pytest.raises(ZeroDenominator):
                evaluate(obj, point)
            with pytest.raises(ZeroDenominator):
                image([obj], point)
            return
        assert evaluate(obj, point) == p / q
        assert image([obj, obj], point) == (p / q, p / q)

    def test_both_paths_raise_length_mismatch(self):
        obj = ratio([1, 0], 1, [0, 1], 1)
        for point in ((1, 2, 3), (1,), (Fraction(1), Fraction(2), Fraction(3)), (Fraction(1),)):
            with pytest.raises(LengthMismatch):
                evaluate(obj, point)


class TestProblemInstance:
    def test_demo_shape(self, demo):
        assert demo.variable_count == 2
        assert demo.constraint_count == 2
        assert len(demo.criteria) == 3
        assert len(demo.utilities) == 2

    def test_needs_two_utilities(self):
        obj = ratio([1], 0, [0], 1)
        with pytest.raises(LengthMismatch):
            instance([[1]], [4], [obj, obj], [obj])

    def test_needs_two_criteria(self):
        obj = ratio([1], 0, [0], 1)
        with pytest.raises(LengthMismatch):
            instance([[1]], [4], [obj], [obj, obj])

    def test_ragged_matrix_rejected(self):
        obj = ratio([1, 1], 0, [0, 0], 1)
        with pytest.raises(LengthMismatch):
            instance([[1, 2], [1]], [4, 4], [obj, obj], [obj, obj])

    def test_feasibility(self, demo):
        assert is_feasible(demo, (4, 1))
        assert not is_feasible(demo, (0, 1))
        assert not is_feasible(demo, (-1, 0))
        with pytest.raises(LengthMismatch):
            is_feasible(demo, (1, 2, 3))


class TestDominance:
    def test_strict_on_one_coordinate(self):
        assert dominates((1, 2), (1, 1))
        assert not dominates((1, 1), (1, 1))
        assert not dominates((2, 0), (1, 1))

    def test_length_mismatch(self):
        for compare in (dominates, at_least):
            with pytest.raises(LengthMismatch):
                compare((1, 2), (1,))

    @given(vector_lists(min_size=2, max_size=2))
    def test_kernel_matches_fraction_comparison(self, pair):
        a, b = pair
        assert dominates(a, b) == fraction_dominates(a, b)
        assert at_least(a, b) == fraction_at_least(a, b)

    @given(
        st.lists(rationals, min_size=1, max_size=4),
        st.lists(rationals, min_size=1, max_size=4),
    )
    def test_antisymmetric(self, a, b):
        if len(a) != len(b):
            return
        assert not (dominates(a, b) and dominates(b, a))

    def test_pareto_keeps_duplicates(self):
        entries = [
            ((0, 0), (Fraction(1), Fraction(1))),
            ((1, 1), (Fraction(1), Fraction(1))),
            ((2, 2), (Fraction(0), Fraction(0))),
        ]
        assert pareto_filter(entries) == [(0, 0), (1, 1)]

    @given(vector_lists())
    def test_pareto_filter_is_exactly_the_nondominated_set(self, vectors):
        """The sweep keeps what the pairwise filter keeps, in input order."""
        entries = [((i,), vec) for i, vec in enumerate(vectors)]
        assert pareto_filter(entries) == pairwise_filter(entries)


class TestScaledConstraints:
    """ProblemInstance.rows: each row of Ax <= b over integer data of
    scale 1, the lcm of its denominators times the row."""

    def test_integer_data_unchanged(self, demo):
        rows = demo.rows
        assert [row.coeffs for row in rows] == [((0, -1), (1, 4)), ((0, 2), (1, -1))]
        assert [row.rhs for row in rows] == [0, 8]
        assert all(row.scale == 1 and row.relation == "<=" for row in rows)

    def test_fractional_rows_scaled_to_integers(self):
        obj = ratio([1, 1], 0, [0, 0], 1)
        inst = instance(
            [[Fraction(1, 2), Fraction(1, 3)], [1, 1]],
            [Fraction(5, 6), 7],
            [obj, obj],
            [obj, obj],
        )
        first, second = inst.rows
        assert first.coeffs == ((0, 3), (1, 2)) and first.rhs == 5 and first.scale == 1
        assert second.coeffs == ((0, 1), (1, 1)) and second.rhs == 7 and second.scale == 1

    @given(
        st.lists(rationals, min_size=2, max_size=2),
        rationals,
    )
    def test_same_halfspace(self, row, rhs):
        obj = ratio([1, 1], 0, [0, 0], 1)
        inst = instance([row, [1, 1]], [rhs, 9], [obj, obj], [obj, obj])
        scaled = inst.rows[0]
        assert scaled.scale == 1
        assert all(isinstance(v, int) for _, v in scaled.coeffs + ((0, scaled.rhs),))
        for point in [(0, 0), (1, 2), (3, 1), (7, 5)]:
            original = sum(c * v for c, v in zip(inst.a_matrix[0], point)) <= rhs
            integer = sum(c * point[j] for j, c in scaled.coeffs) <= scaled.rhs
            assert original == integer

    @given(
        st.lists(rationals, min_size=1, max_size=4),
        st.sampled_from((LESS_EQ, GREATER_EQ)),
        rationals,
        st.lists(st.integers(-9, 9), min_size=4, max_size=4),
    )
    def test_dense_rows_give_scaled_slacks(self, coeffs, relation, rhs, point):
        """row_gaps over a row's dense form gives its scale times its slack
        at an integer point, and None exactly where the slack is negative."""
        row = LinearRow.of(coeffs, relation, rhs)
        lhs = sum(c * v for c, v in zip(coeffs, point))
        slack = rhs - lhs if relation == LESS_EQ else lhs - rhs
        assert row_gaps([row.dense], point) == (None if slack < 0 else [slack * row.scale])
