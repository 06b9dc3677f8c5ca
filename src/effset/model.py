"""Exact data model shared by every solver component.

Every numeric quantity is a `fractions.Fraction`. The solvers decide
branching, cuts and efficiency from the signs of computed quantities, so
arithmetic has to be exact; floats never appear on any decision path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import LengthMismatch, ZeroDenominator

Rational = Fraction
Point = tuple[int, ...]
ObjectiveVector = tuple[Fraction, ...]


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like '-4/7' and Fractions to Fraction."""
    return value if isinstance(value, Fraction) else Fraction(value)


def _dot(coeffs: Sequence, point: Sequence, constant=0) -> tuple[int, int]:
    """constant + coeffs . point over ints and Fractions, as an unreduced
    (numerator, denominator > 0). Integer data stays in int arithmetic; one
    gcd when the caller builds a Fraction replaces one per term."""
    num, den = constant.numerator, constant.denominator
    for c, v in zip(coeffs, point):
        if c and v:
            n = c.numerator * v.numerator
            d = c.denominator * v.denominator
            if d == den:
                num += n
            else:
                num, den = num * d + n * den, den * d
    return num, den


@dataclass(frozen=True)
class AffineForm:
    """A linear form with constant term: coeffs . x + constant."""

    coeffs: tuple[Fraction, ...]
    constant: Fraction = Fraction(0)

    @classmethod
    def of(cls, coeffs: Iterable, constant=0) -> "AffineForm":
        return cls(tuple(as_fraction(c) for c in coeffs), as_fraction(constant))

    def at(self, point: Sequence) -> Fraction:
        return Fraction(*self._at(point))

    def _at(self, point: Sequence) -> tuple[int, int]:
        """The value at point as an unreduced (numerator, denominator > 0)."""
        if len(point) != len(self.coeffs):
            raise LengthMismatch(
                f"form over {len(self.coeffs)} variables evaluated at "
                f"{len(point)}-vector"
            )
        return _dot(self.coeffs, point, self.constant)


@dataclass(frozen=True)
class FractionalObjective:
    """A ratio of two affine forms, maximized. The denominator is assumed
    strictly positive over the feasible region (validate_instance certifies
    this before any solve)."""

    numerator: AffineForm
    denominator: AffineForm

    def __post_init__(self):
        if len(self.numerator.coeffs) != len(self.denominator.coeffs):
            raise LengthMismatch("numerator and denominator over different spaces")


def ratio(num_coeffs, num_const, den_coeffs, den_const) -> FractionalObjective:
    """Shorthand constructor: ratio([1,0], -4, [0,-1], 2) is (x0-4)/(-x1+2)."""
    return FractionalObjective(
        AffineForm.of(num_coeffs, num_const), AffineForm.of(den_coeffs, den_const)
    )


def evaluate(objective: FractionalObjective, point: Sequence) -> Fraction:
    q_num, q_den = objective.denominator._at(point)
    if q_num == 0:
        raise ZeroDenominator(f"denominator vanishes at {tuple(point)}")
    p_num, p_den = objective.numerator._at(point)
    return Fraction(p_num * q_den, p_den * q_num)


@dataclass(frozen=True)
class ProblemInstance:
    """Constraint system Ax <= b, x >= 0 integer, with k >= 2 ranking
    criteria and exactly two utility ratios evaluated over the criteria's
    efficient points."""

    a_matrix: tuple[tuple[Fraction, ...], ...]
    b_vector: tuple[Fraction, ...]
    criteria: tuple[FractionalObjective, ...]
    utilities: tuple[FractionalObjective, ...]

    def __post_init__(self):
        m = len(self.a_matrix)
        if m == 0:
            raise LengthMismatch("instance needs at least one constraint row")
        n = len(self.a_matrix[0])
        if any(len(row) != n for row in self.a_matrix):
            raise LengthMismatch("ragged constraint matrix")
        if len(self.b_vector) != m:
            raise LengthMismatch("b_vector length differs from row count")
        if len(self.criteria) < 2:
            raise LengthMismatch("need at least two ranking criteria")
        if len(self.utilities) != 2:
            raise LengthMismatch("need exactly two utility objectives")
        for obj in (*self.criteria, *self.utilities):
            if len(obj.numerator.coeffs) != n:
                raise LengthMismatch("objective over wrong variable count")

    @property
    def variable_count(self) -> int:
        return len(self.a_matrix[0])

    @property
    def constraint_count(self) -> int:
        return len(self.a_matrix)


def instance(a, b, criteria, utilities) -> ProblemInstance:
    """Constructor that coerces plain ints/strings to Fractions."""
    return ProblemInstance(
        tuple(tuple(as_fraction(v) for v in row) for row in a),
        tuple(as_fraction(v) for v in b),
        tuple(criteria),
        tuple(utilities),
    )


def is_feasible(inst: ProblemInstance, point: Sequence) -> bool:
    """Ax <= b and x >= 0. Integrality is the caller's concern."""
    if len(point) != inst.variable_count:
        raise LengthMismatch("point has wrong dimension")
    if any(v < 0 for v in point):
        return False
    for row, rhs in zip(inst.a_matrix, inst.b_vector):
        num, den = _dot(row, point)
        if num * rhs.denominator > rhs.numerator * den:
            return False
    return True


def criteria_image(inst: ProblemInstance, point: Sequence) -> ObjectiveVector:
    return tuple(evaluate(obj, point) for obj in inst.criteria)


def utility_image(inst: ProblemInstance, point: Sequence) -> ObjectiveVector:
    return tuple(evaluate(obj, point) for obj in inst.utilities)


def dominates(a: Sequence, b: Sequence) -> bool:
    """True iff a >= b componentwise with at least one strict coordinate
    (maximization sense)."""
    if len(a) != len(b):
        raise LengthMismatch(f"vectors of length {len(a)} and {len(b)}")
    strict = False
    for x, y in zip(a, b):
        if x < y:
            return False
        if x > y:
            strict = True
    return strict


def pareto_filter(entries: Sequence[tuple[Point, ObjectiveVector]]) -> list[Point]:
    """Keep the points whose objective vectors no other entry dominates.

    Points with identical vectors are all kept (none dominates the other),
    so duplicated optima survive filtering.
    """
    vectors = [v for _, v in entries]
    kept = []
    for i, (point, vec) in enumerate(entries):
        if not any(j != i and dominates(vectors[j], vec) for j in range(len(vectors))):
            kept.append(point)
    return kept


def denominator_lcm(values: Iterable[Fraction]) -> int:
    scale = 1
    for v in values:
        scale = math.lcm(scale, v.denominator)
    return scale


def scaled_constraints(inst: ProblemInstance) -> tuple[list[list[int]], list[int]]:
    """Each row scaled by the lcm of its denominators: same halfspaces,
    integer data."""
    a_int, b_int = [], []
    for row, rhs in zip(inst.a_matrix, inst.b_vector):
        scale = denominator_lcm((*row, rhs))
        a_int.append([int(v * scale) for v in row])
        b_int.append(int(rhs * scale))
    return a_int, b_int
