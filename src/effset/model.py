"""Exact data model shared by every solver component.

Instance data are `fractions.Fraction`s. A constraint row (`LinearRow`)
holds integers over one positive scale, and each affine form keeps its
integer data (`AffineForm.scaled`), so the solvers read integers without
rescaling a row or a form again. The solvers decide branching, cuts and
efficiency from the signs of computed quantities, so arithmetic has to be
exact; floats never appear on any decision path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import mul
from typing import Iterable, Mapping, Sequence

from .errors import LengthMismatch, ZeroDenominator

Point = tuple[int, ...]
ObjectiveVector = tuple[Fraction, ...]

ZERO = Fraction(0)

LESS_EQ = "<="
GREATER_EQ = ">="
_RELATIONS = (LESS_EQ, GREATER_EQ)


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

    @cached_property
    def scaled(self) -> tuple[tuple[int, ...], int, int]:
        """(coeffs, constant, scale): scale times the form as integers,
        scale the lcm of its denominators. Computed once per form."""
        scale = denominator_lcm((*self.coeffs, self.constant))
        coeffs = tuple(v.numerator * (scale // v.denominator) for v in self.coeffs)
        constant = self.constant
        return coeffs, constant.numerator * (scale // constant.denominator), scale

    def _at(self, point: Sequence) -> tuple[int, int]:
        """The value at point as an unreduced (numerator, denominator > 0),
        summed over the form's integer data."""
        self._check(point)
        coeffs, constant, scale = self.scaled
        num, den = _dot(coeffs, point, constant)
        return num, den * scale

    def scaled_at(self, point: Sequence[int]) -> int:
        """`scale` times the value at an integer point: the constant plus
        the dot product of the form's integer data (`scaled`) with it."""
        self._check(point)
        coeffs, constant, _ = self.scaled
        return constant + sum(map(mul, coeffs, point))

    def _check(self, point: Sequence) -> None:
        if len(point) != len(self.coeffs):
            raise LengthMismatch(
                f"form over {len(self.coeffs)} variables evaluated at "
                f"{len(point)}-vector"
            )


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
    """The ratio at point. At an all-int point both forms are summed in
    ints (`AffineForm.scaled_at`); other points go through `_dot`."""
    num, den = objective.numerator, objective.denominator
    if all(map(isinstance, point, repeat(int))):
        q = den.scaled_at(point)
        if q == 0:
            raise ZeroDenominator(f"denominator vanishes at {tuple(point)}")
        return Fraction(num.scaled_at(point) * den.scaled[2], q * num.scaled[2])
    q_num, q_den = den._at(point)
    if q_num == 0:
        raise ZeroDenominator(f"denominator vanishes at {tuple(point)}")
    p_num, p_den = num._at(point)
    return Fraction(p_num * q_den, p_den * q_num)


@dataclass(frozen=True)
class LinearRow:
    """One constraint over integer data: (coeffs / scale) . x relation
    rhs / scale. coeffs is sparse: ((var_index, numerator), ...) sorted by
    index, zeros dropped. scale > 0 is the lcm of the denominators of the
    row's rational entries, so a row has one integer form (see `of`)."""

    coeffs: tuple[tuple[int, int], ...]
    relation: str
    rhs: int
    scale: int = 1

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")
        if self.scale < 1:
            raise ValueError(f"a row's scale must be positive, got {self.scale}")

    @classmethod
    def of(cls, coeffs, relation: str, rhs) -> "LinearRow":
        """coeffs may be a {index: value} mapping or a dense sequence of
        ints, strings like '-4/7' or Fractions; each is converted once."""
        items = coeffs.items() if isinstance(coeffs, Mapping) else enumerate(coeffs)
        entries = [(j, v) for j, v in ((j, as_fraction(v)) for j, v in items) if v]
        rhs = as_fraction(rhs)
        scale = denominator_lcm((rhs, *(v for _, v in entries)))
        pairs = sorted((j, v.numerator * (scale // v.denominator)) for j, v in entries)
        return cls(tuple(pairs), relation, rhs.numerator * (scale // rhs.denominator), scale)

    @classmethod
    def over(cls, coeffs: Sequence[int], relation: str, rhs: int, scale: int) -> "LinearRow":
        """The row (coeffs / scale) . x relation rhs / scale from dense
        integers and scale > 0, divided by their gcd: the lcm of the row's
        denominators is then its scale, as in `of`."""
        g = math.gcd(scale, rhs, *coeffs)
        pairs = tuple((j, c // g) for j, c in enumerate(coeffs) if c)
        return cls(pairs, relation, rhs // g, scale // g)


def constraint_rows(a_matrix, b_vector) -> tuple[LinearRow, ...]:
    """Ax <= b as rows, each scaled by the lcm of its denominators to a row
    of scale 1: the same halfspaces over integer data, so slacks take
    integer values at integer points (the branch-and-cut rounds rely on
    this). An instance builds these once (`ProblemInstance.rows`)."""
    rows = []
    for a_row, rhs in zip(a_matrix, b_vector):
        row = LinearRow.of(a_row, LESS_EQ, rhs)
        rows.append(LinearRow(row.coeffs, LESS_EQ, row.rhs))
    return tuple(rows)


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

    @cached_property
    def rows(self) -> tuple[LinearRow, ...]:
        """The constraint rows (see constraint_rows), built once per
        instance; the dataclass's equality and hash ignore them."""
        return constraint_rows(self.a_matrix, self.b_vector)

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
    """Ax <= b and x >= 0, tested on the instance's integer rows.
    Integrality is the caller's concern."""
    if len(point) != inst.variable_count:
        raise LengthMismatch("point has wrong dimension")
    if any(v < 0 for v in point):
        return False
    return all(sum(c * point[j] for j, c in row.coeffs) <= row.rhs for row in inst.rows)


def criteria_image(inst: ProblemInstance, point: Sequence) -> ObjectiveVector:
    return tuple(evaluate(obj, point) for obj in inst.criteria)


def utility_image(inst: ProblemInstance, point: Sequence) -> ObjectiveVector:
    return tuple(evaluate(obj, point) for obj in inst.utilities)


def _compare(a: Sequence, b: Sequence) -> bool | None:
    """None when some coordinate of a is below b's, else whether some
    coordinate is above. Every image comparison comes here. Coordinates
    (ints or Fractions) x and y are compared as x.numerator * y.denominator
    against y.numerator * x.denominator in ints, which is exact because
    denominators are positive."""
    if len(a) != len(b):
        raise LengthMismatch(f"vectors of length {len(a)} and {len(b)}")
    strict = False
    for x, y in zip(a, b):
        lhs = x.numerator * y.denominator
        rhs = y.numerator * x.denominator
        if lhs < rhs:
            return None
        if lhs > rhs:
            strict = True
    return strict


def dominates(a: Sequence, b: Sequence) -> bool:
    """True iff a >= b componentwise with at least one strict coordinate
    (maximization sense), decided in ints (`_compare`)."""
    return _compare(a, b) is True


def at_least(a: Sequence, b: Sequence) -> bool:
    """True iff a >= b componentwise, decided in ints (`_compare`)."""
    return _compare(a, b) is not None


def pareto_filter(entries: Sequence[tuple[Point, ObjectiveVector]]) -> list[Point]:
    """Keep the points whose objective vectors no other entry dominates,
    in input order.

    The vectors are swept in descending lexicographic order, in which a
    vector sorts strictly after every vector that dominates it, and each is
    tested against the vectors kept so far only: strict dominance is
    transitive, so a dropped dominator is itself dominated by a kept one,
    which then dominates the vector too. Points with identical vectors are
    all kept (none dominates the other), so duplicated optima survive
    filtering.
    """
    front: list[ObjectiveVector] = []
    kept = [False] * len(entries)
    for i in sorted(range(len(entries)), key=lambda i: entries[i][1], reverse=True):
        vec = entries[i][1]
        if not any(dominates(u, vec) for u in front):
            front.append(vec)
            kept[i] = True
    return [point for (point, _), keep in zip(entries, kept) if keep]


def denominator_lcm(values: Iterable[Fraction]) -> int:
    scale = 1
    for v in values:
        scale = math.lcm(scale, v.denominator)
    return scale

