import math
import sys
from collections import Counter
from fractions import Fraction

import pytest

from effset.model import instance, ratio
from effset.simplex import GREATER_EQ, LESS_EQ, LinearRow

# Two-variable instance used throughout: three ranking criteria and two
# utilities over {x >= 0 integer : -x1 + 4*x2 <= 0, 2*x1 - x2 <= 8}.
# Small enough to verify every intermediate quantity by hand.
DEMO_A = [[-1, 4], [2, -1]]
DEMO_B = [0, 8]

DEMO_FEASIBLE = {(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (4, 1)}
DEMO_CRITERIA_EFFICIENT = {(0, 0), (1, 0), (2, 0), (3, 0), (4, 1)}
DEMO_UTILITY_EFFICIENT = {(0, 0), (1, 0), (4, 1)}
DEMO_SOLUTION_SET = {(0, 0), (1, 0), (4, 1)}

# int() refuses a string of more digits than this: Python's limit, 4300 by
# default, and 0 where the interpreter has none.
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_digit_limit = pytest.mark.skipif(
    INT_DIGIT_LIMIT == 0, reason="int() converts integer strings of any length"
)


def build_demo():
    criteria = [
        ratio([1, 0], -4, [0, -1], 2),
        ratio([-1, 0], 4, [0, 1], 1),
        ratio([-1, 1], 0, [0, 0], 1),
    ]
    utilities = [
        ratio([-1, 1], -3, [2, 1], 1),
        ratio([-4, 3], 1, [2, 1], 2),
    ]
    return instance(DEMO_A, DEMO_B, criteria, utilities)


@pytest.fixture
def demo():
    return build_demo()


def frac(text) -> Fraction:
    return Fraction(text)


def count_calls(monkeypatch, fn) -> Counter:
    """Route every effset module's binding of fn (the defining one and each
    `from ... import` copy) through a counter keyed by the binding module's
    short name, the way effbench/tracing.py rebinds names."""
    counts = Counter()
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("effset."):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                def counted(*args, _key=modname.split(".", 1)[1], **kwargs):
                    counts[_key] += 1
                    return fn(*args, **kwargs)

                monkeypatch.setattr(module, attr, counted)
    return counts


def full_point(state):
    """Every coordinate of a state's point, structural and slack."""
    return state.structural_point(state.num_vars)


def assert_dakin_rows(state, n, rows):
    """`rows` are Dakin's branch at the state's point over n structural
    variables, read off its Fractions: x_j <= floor and x_j >= floor + 1 on
    the first fractional coordinate j, or None when every one is integral."""
    point = state.structural_point(n)
    fractional = [j for j, v in enumerate(point) if v.denominator != 1]
    if not fractional:
        assert rows is None
        return
    j = fractional[0]
    lo = math.floor(point[j])
    assert rows == (LinearRow.of({j: 1}, LESS_EQ, lo), LinearRow.of({j: 1}, GREATER_EQ, lo + 1))


def assert_vertex_read(state, n):
    """The state's one point reader (`SimplexState.vertex`, det times the
    point in ints) over det is its Fraction point, and its entries // det
    are the floor of each coordinate, the rounded point both
    branch-and-bounds read."""
    point, x = state.structural_point(n), state.vertex(n)
    assert tuple(Fraction(v, state.det) for v in x) == point
    assert [v // state.det for v in x] == [math.floor(v) for v in point]


def assert_fits(num_vars, rows, full_point):
    """The full point (structural coordinates, then one slack per row in
    row order) is >= 0, gives each row's slack its value as the row is
    written, and so satisfies every row."""
    assert all(v >= 0 for v in full_point)
    slack = num_vars
    for row in rows:
        # A row is its integer data over its scale.
        lhs = Fraction(sum(c * full_point[j] for j, c in row.coeffs)) / row.scale
        rhs = Fraction(row.rhs, row.scale)
        gap = rhs - lhs if row.relation == LESS_EQ else lhs - rhs
        assert full_point[slack] == gap
        slack += 1
    assert slack == len(full_point)
