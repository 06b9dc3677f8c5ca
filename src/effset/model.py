"""Exact data model shared by every solver component.

Instance data are `fractions.Fraction`s. Every rational the solvers read
becomes integers over one positive scale, the lcm of its denominators, in
one place (`integers`): a constraint row (`LinearRow`), an affine form's
data (`AffineForm.scaled`, kept once per form), a program's cost
(`simplex.LinearProgram.of`) and a rational point. So the solvers read
integers without rescaling a row or a form again. An instance builds its
rows once (`ProblemInstance.rows`) and marks those the others imply with
strict slack (`simplex.presolve`), which no tableau writes and
`is_feasible` skips. An integer point is checked against dense integer
rows (`LinearRow.dense`, `row_gaps`), and every ratio is evaluated by one
integer kernel (`_ratio_at_ints`) on each objective's integer data
(`FractionalObjective.scaled`), at an all-int point as it is and at a
rational point over its common denominator. The solvers decide
branching, cuts and efficiency from the signs of computed quantities, so
arithmetic has to be exact; floats never appear on any decision path, and
`integers` refuses them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import mul
from typing import TYPE_CHECKING, Collection, Iterable, Mapping, Sequence

from .errors import LengthMismatch, ZeroDenominator

if TYPE_CHECKING:
    from .validate import InstanceCertificate

Point = tuple[int, ...]
ObjectiveVector = tuple[Fraction, ...]

ZERO = Fraction(0)

LESS_EQ = "<="
GREATER_EQ = ">="
_RELATIONS = (LESS_EQ, GREATER_EQ)


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like '-4/7' and Fractions to Fraction. A float
    is refused: its binary value (0.1 is 3602879701896397 / 2**55) is
    seldom the number meant, and its power-of-two denominator would scale
    every integer the solvers derive from it."""
    if isinstance(value, float):
        raise TypeError(f"{value!r} is a float; pass an int, a string such as '1/10' or a Fraction")
    return value if isinstance(value, Fraction) else Fraction(value)


def integers(values: Collection) -> tuple[Collection[int], int]:
    """(ints, scale): scale times each value (an int, a string like '-4/7'
    or a Fraction, see `as_fraction`) as an int, scale > 0 the lcm of the
    values' denominators; all ints come back as they are, over 1. Every
    rational the solvers read becomes integers here: a row, a form, a
    program's cost and a point."""
    if all(map(isinstance, values, repeat(int))):
        return values, 1
    values = [v if isinstance(v, (int, Fraction)) else as_fraction(v) for v in values]
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


@dataclass(frozen=True)
class AffineForm:
    """A linear form with constant term: coeffs . x + constant."""

    coeffs: tuple[Fraction, ...]
    constant: Fraction = Fraction(0)

    @classmethod
    def of(cls, coeffs: Iterable, constant=0) -> "AffineForm":
        return cls(tuple(as_fraction(c) for c in coeffs), as_fraction(constant))

    def at(self, point: Sequence) -> Fraction:
        """The value at point, summed in ints (`scaled_at`)."""
        point, den = integers(point)
        return Fraction(self.scaled_at(point, den), self.scaled[2] * den)

    @cached_property
    def scaled(self) -> tuple[tuple[int, ...], int, int]:
        """(coeffs, constant, scale): scale times the form as integers
        (`integers`). Computed once per form."""
        (*coeffs, constant), scale = integers((*self.coeffs, self.constant))
        return tuple(coeffs), constant, scale

    def scaled_at(self, point: Sequence[int], den: int = 1) -> int:
        """`scale * den` times the value at point / den, for an int point
        over a common denominator den > 0 (`integers`): den times the
        constant plus the dot product of the form's integer data (`scaled`)
        with the point."""
        self._check(point)
        coeffs, constant, _ = self.scaled
        return constant * den + sum(map(mul, coeffs, point))

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

    @cached_property
    def scaled(self) -> tuple[tuple[int, ...], int, int, tuple[int, ...], int, int]:
        """(C, C0, sn, D, D0, sd): the numerator's and the denominator's
        integer data (`AffineForm.scaled`) in one tuple, kept once per
        objective for evaluation at integer points."""
        return (*self.numerator.scaled, *self.denominator.scaled)


def ratio(num_coeffs, num_const, den_coeffs, den_const) -> FractionalObjective:
    """Shorthand constructor: ratio([1,0], -4, [0,-1], 2) is (x0-4)/(-x1+2)."""
    return FractionalObjective(
        AffineForm.of(num_coeffs, num_const), AffineForm.of(den_coeffs, den_const)
    )


def _ratio_at_ints(objective: FractionalObjective, point: Sequence[int], den: int = 1) -> Fraction:
    """The ratio at point / den, for an int point over a common
    denominator den > 0: both forms summed in ints over the objective's
    integer data (`FractionalObjective.scaled`), in which den cancels.
    Every ratio is evaluated here."""
    c, c0, sn, d, d0, sd = objective.scaled
    if len(point) != len(c):
        objective.numerator._check(point)
    if den != 1:
        c0, d0 = c0 * den, d0 * den
    q = d0 + sum(map(mul, d, point))
    if q == 0:
        over = f" / {den}" if den != 1 else ""
        raise ZeroDenominator(f"denominator vanishes at {tuple(point)}{over}")
    return Fraction((c0 + sum(map(mul, c, point))) * sd, q * sn)


def evaluate(objective: FractionalObjective, point: Sequence) -> Fraction:
    """The ratio at point (`_ratio_at_ints`)."""
    return _ratio_at_ints(objective, *integers(point))


def image(objectives: Iterable[FractionalObjective], point: Sequence) -> ObjectiveVector:
    """Each objective's ratio at point (`_ratio_at_ints`), the point
    brought to ints once for all of them. Every solution record and
    witness is imaged at an int point, which goes in as it is, a call
    shorter than through `integers`."""
    if all(map(isinstance, point, repeat(int))):
        return tuple([_ratio_at_ints(obj, point) for obj in objectives])
    point, den = integers(point)
    return tuple([_ratio_at_ints(obj, point, den) for obj in objectives])


@dataclass(frozen=True)
class LinearRow:
    """One constraint over integer data: (coeffs / scale) . x relation
    rhs / scale. coeffs is sparse: ((var_index, numerator), ...) sorted by
    index, zeros dropped. scale > 0 is the lcm of the denominators of the
    row's rational entries, so a row has one integer form (see `of`).

    implied marks a row the other rows of its system imply with strict
    slack (`simplex.presolve`): a tableau reserves its slack column but
    writes no row for it. Equality and hash ignore the mark."""

    coeffs: tuple[tuple[int, int], ...]
    relation: str
    rhs: int
    scale: int = 1
    implied: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")
        if self.scale < 1:
            raise ValueError(f"a row's scale must be positive, got {self.scale}")

    @classmethod
    def of(cls, coeffs, relation: str, rhs) -> "LinearRow":
        """coeffs may be a {index: value} mapping or a dense sequence of
        ints, strings like '-4/7' or Fractions; the row is converted once
        (`integers`)."""
        items = sorted(coeffs.items()) if isinstance(coeffs, Mapping) else list(enumerate(coeffs))
        (rhs, *values), scale = integers((rhs, *(v for _, v in items)))
        pairs = tuple((j, c) for (j, _), c in zip(items, values) if c)
        return cls(pairs, relation, rhs, scale)

    @classmethod
    def over(cls, coeffs: Sequence[int], relation: str, rhs: int, scale: int) -> "LinearRow":
        """The row (coeffs / scale) . x relation rhs / scale from dense
        integers and scale > 0, divided by their gcd: the lcm of the row's
        denominators is then its scale, as in `of`."""
        g = math.gcd(scale, rhs, *coeffs)
        pairs = tuple((j, c // g) for j, c in enumerate(coeffs) if c)
        return cls(pairs, relation, rhs // g, scale // g)

    @cached_property
    def dense(self) -> tuple[tuple[int, ...], int]:
        """(a, h): the row as a . x <= h over its integer data, a dense up
        to the last column the row names (a >= row is negated), so h - a . x
        is the row's scale times its slack. Built once per row; the
        dataclass's equality and hash ignore it."""
        sign = -1 if self.relation == GREATER_EQ else 1
        a = [0] * (self.coeffs[-1][0] + 1 if self.coeffs else 0)
        for j, c in self.coeffs:
            a[j] = sign * c
        return tuple(a), sign * self.rhs


def row_gaps(rows: Iterable[tuple[Sequence[int], int]], point: Sequence[int]) -> list[int] | None:
    """h - a . x for each dense row (a, h) (`LinearRow.dense`) at a point,
    summed in ints at an integer point; None at the first row the point
    violates. Every row is evaluated at a point here."""
    gaps = []
    for a, h in rows:
        gap = h - sum(map(mul, a, point))
        if gap < 0:
            return None
        gaps.append(gap)
    return gaps


def constraint_rows(a_matrix, b_vector) -> tuple[LinearRow, ...]:
    """Ax <= b as rows, each scaled by the lcm of its denominators to a row
    of scale 1: the same halfspaces over integer data, so slacks take
    integer values at integer points (the branch-and-cut rounds rely on
    this). Entries are ints or Fractions, and each row is converted once
    (`integers`). An instance builds these once (`ProblemInstance.rows`)."""
    rows = []
    for a_row, rhs in zip(a_matrix, b_vector):
        (rhs, *values), _ = integers((rhs, *a_row))
        rows.append(LinearRow(tuple((j, c) for j, c in enumerate(values) if c), LESS_EQ, rhs))
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
        """The constraint rows (see constraint_rows) with the rows the
        others strictly imply marked (`simplex.presolve`), built once per
        instance; the dataclass's equality and hash ignore them."""
        # simplex imports this module, so it is imported where it is used.
        from .simplex import presolve

        return presolve(self.variable_count, constraint_rows(self.a_matrix, self.b_vector))

    @cached_property
    def certificate(self) -> InstanceCertificate:
        """`validate.validate_instance` of the instance, proved once per
        instance (the generator fills it from its own solves); the
        dataclass's equality and hash ignore it."""
        from .validate import validate_instance

        return validate_instance(self)

    @cached_property
    def dense_rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The dense forms (`LinearRow.dense`) of the rows no other row
        implies, kept once per instance for `is_feasible`: an implied row
        holds at every point x >= 0 where the others do."""
        return tuple(row.dense for row in self.rows if not row.implied)

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
    """Ax <= b and x >= 0, tested on the instance's dense integer rows
    (`row_gaps`). Integrality is the caller's concern."""
    if len(point) != inst.variable_count:
        raise LengthMismatch("point has wrong dimension")
    return min(point, default=0) >= 0 and row_gaps(inst.dense_rows, point) is not None


def criteria_image(inst: ProblemInstance, point: Sequence) -> ObjectiveVector:
    return image(inst.criteria, point)


def utility_image(inst: ProblemInstance, point: Sequence) -> ObjectiveVector:
    return image(inst.utilities, point)


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

