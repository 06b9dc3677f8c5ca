"""Exact two-phase primal simplex on an integer-preserving tableau.

Rows may mix <=, >= and == relations. Standardization appends one slack or
surplus variable per inequality row, in row order, so a row's added variable
has a predictable index (structural count + row position when every row adds
one). Added variables are first-class: later rows may reference them, which
is how branch-and-cut expresses its rounds over slack coordinates.

Pivots run on integers (Edmonds 1967, Bareiss 1968, as in Avis' lrs). The
tableau keeps integer rows, each ending in its right-hand side, plus one
positive common denominator `det`, so the exact tableau [B^-1 A | B^-1 b]
is rows / det. Each input row is scaled to integers by the lcm of its
denominators, and det starts as the product of those scales: the
determinant of the starting unit basis in the scaled system. A pivot on
element p sets det to |p|, the determinant of the new basis (times a
constant factor once phase one drops a redundant row), so every division in
a pivot is exact and entries stay bounded by minors of the scaled input.
A `SimplexState` keeps the final integer rows; `Fraction`s are built only
when a point or a reduced row is read off it.

Bland's rule everywhere (smallest eligible index entering, smallest basic
index on ratio ties), so solves are deterministic and never cycle. Every
test compares the sign of an integer multiple (by a positive factor) of
the rational quantity it stands for, so the walk is the one the rational
tableau takes.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InvariantViolated, NotOptimal
from .model import AffineForm, as_fraction, denominator_lcm

ZERO = Fraction(0)

LESS_EQ = "<="
GREATER_EQ = ">="
EQUAL = "=="
_RELATIONS = (LESS_EQ, GREATER_EQ, EQUAL)


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearRow:
    """One constraint. coeffs is sparse: ((var_index, coeff), ...) sorted."""

    coeffs: tuple[tuple[int, Fraction], ...]
    relation: str
    rhs: Fraction

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")

    @classmethod
    def of(cls, coeffs, relation: str, rhs) -> "LinearRow":
        """coeffs may be a {index: value} mapping or a dense sequence."""
        if isinstance(coeffs, Mapping):
            items = coeffs.items()
        else:
            items = enumerate(coeffs)
        merged: dict[int, Fraction] = {}
        for j, v in items:
            v = as_fraction(v)
            if v:
                merged[j] = merged.get(j, ZERO) + v
        pairs = tuple(sorted((j, v) for j, v in merged.items() if v))
        return cls(pairs, relation, as_fraction(rhs))


def constraint_rows(a_matrix, b_vector) -> tuple[LinearRow, ...]:
    """Ax <= b as rows, each scaled by the lcm of its denominators: the
    same halfspaces over integer data, so slacks take integer values at
    integer points (the branch-and-cut rounds rely on this). Integer rows
    pass through without new arithmetic."""
    rows = []
    for a_row, rhs in zip(a_matrix, b_vector):
        scale = denominator_lcm((*a_row, rhs))
        if scale != 1:
            a_row = [c * scale for c in a_row]
            rhs = rhs * scale
        rows.append(LinearRow(tuple((j, c) for j, c in enumerate(a_row) if c), LESS_EQ, rhs))
    return tuple(rows)


@dataclass(frozen=True)
class LinearProgram:
    """Maximize objective . x over the rows plus x >= 0.

    num_vars counts structural variables; the objective is over those.
    Row coefficients may also touch slack variables of earlier rows.
    """

    num_vars: int
    objective: tuple[Fraction, ...]
    rows: tuple[LinearRow, ...]

    @classmethod
    def of(cls, num_vars, objective, rows) -> "LinearProgram":
        dense = [ZERO] * num_vars
        if isinstance(objective, Mapping):
            for j, v in objective.items():
                dense[j] = as_fraction(v)
        else:
            for j, v in enumerate(objective):
                dense[j] = as_fraction(v)
        return cls(num_vars, tuple(dense), tuple(rows))


@dataclass(frozen=True)
class SimplexState:
    """Final tableau snapshot: rows / det is [B^-1 A | B^-1 b] over all
    real variables, one integer row per constraint with its right-hand
    side last. The rows are the tableau's own lists, shared without a copy;
    pivots replace rows instead of writing into them. An INFEASIBLE state
    has no basis and no rows, and its num_vars counts the structural
    variables only."""

    status: Status
    num_vars: int
    basis: tuple[int, ...]
    rows: tuple[list[int], ...]
    det: int = 1

    @property
    def nonbasis(self) -> tuple[int, ...]:
        basic = set(self.basis)
        return tuple(j for j in range(self.num_vars) if j not in basic)

    def full_point(self) -> tuple[Fraction, ...]:
        point = [ZERO] * self.num_vars
        for var, row in zip(self.basis, self.rows):
            point[var] = Fraction(row[-1], self.det)
        return tuple(point)

    def structural_point(self, n: int) -> tuple[Fraction, ...]:
        return self.full_point()[:n]


def integer_form(form: AffineForm, ncols: int) -> tuple[list[int], int, int]:
    """(cost, constant, scale): scale * form as integers, the cost padded
    with zeros to ncols columns; scale is the lcm of the denominators."""
    values = (*form.coeffs, form.constant)
    scale = denominator_lcm(values)
    cost = [v.numerator * (scale // v.denominator) for v in values]
    constant = cost.pop()
    cost += [0] * (ncols - len(cost))
    return cost, constant, scale


class Tableau:
    """Mutable dense integer tableau; the exact tableau is rows / det, each
    row ending in its right-hand side. Internal to the solvers; snapshot
    with `state()` before handing results out. Costs passed in are integer
    (see integer_form)."""

    __slots__ = ("ncols", "rows", "basis", "det")

    def __init__(self, ncols, rows, basis, det):
        self.ncols = ncols
        self.rows = rows
        self.basis = basis
        self.det = det

    @classmethod
    def of_state(cls, state: SimplexState) -> "Tableau":
        """The integer tableau behind an optimal state, for reduced rows or
        further pivots; pivoting it leaves the state unchanged."""
        if state.status is not Status.OPTIMAL:
            raise NotOptimal(f"reduced rows need an optimal state, got {state.status}")
        return cls(state.num_vars, list(state.rows), list(state.basis), state.det)

    def pivot(self, row_idx: int, col: int) -> None:
        rows, det = self.rows, self.det
        prow = rows[row_idx]
        piv = prow[col]
        if piv < 0:
            # Scaling a row by -1 leaves the system and the pivot's result
            # unchanged and keeps det positive.
            piv = -piv
            prow = rows[row_idx] = [-v for v in prow]
        for i, row in enumerate(rows):
            if i == row_idx:
                continue
            factor = row[col]
            if factor:
                rows[i] = [(piv * a - factor * b) // det for a, b in zip(row, prow)]
            elif piv != det:
                rows[i] = [piv * a // det for a in row]
        self.basis[row_idx] = col
        self.det = piv

    def reduced(self, cost: Sequence[int]) -> list[int]:
        """det * (cost - cost_B . B^-1 A) over every column (zero at basic
        ones): the reduced costs scaled by the positive det."""
        red = [self.det * c for c in cost]
        for row, var in zip(self.rows, self.basis):
            cb = cost[var]
            if cb:
                red = [a - cb * b for a, b in zip(red, row)]
        return red

    def value_of(self, cost: Sequence[int], constant: int = 0) -> int:
        """det * (constant + cost . x) at the tableau's point."""
        total = self.det * constant
        for var, row in zip(self.basis, self.rows):
            c = cost[var]
            if c:
                total += c * row[-1]
        return total

    def leaving_row(self, col: int) -> int:
        """Bland's ratio test on a column: the row with the smallest
        rhs / a over a > 0, ties to the smallest basic index; -1 if none.
        det cancels from rhs / a, and ratios compare by cross-multiplying
        positive pivots."""
        basis = self.basis
        leave = best_var = -1
        best_num = best_den = 0
        for i, row in enumerate(self.rows):
            a = row[col]
            if a > 0:
                left, right = row[-1] * best_den, best_num * a
                if leave < 0 or left < right or (left == right and basis[i] < best_var):
                    leave, best_var, best_num, best_den = i, basis[i], row[-1], a
        return leave

    def state(self, status: Status) -> SimplexState:
        return SimplexState(status, self.ncols, tuple(self.basis), tuple(self.rows), self.det)


def _integer_system(program: LinearProgram) -> tuple[list[list[int]], int, int]:
    """Dense equality system with one slack/surplus per inequality row,
    scaled to integers over one common denominator: row i is multiplied by
    det = product of the lcm of each row's denominators, and ends in its
    right-hand side. Returns (rows, det, total_columns)."""
    num_added = sum(1 for r in program.rows if r.relation != EQUAL)
    total = program.num_vars + num_added
    det = 1
    for row in program.rows:
        scale = row.rhs.denominator
        for _, c in row.coeffs:
            scale = math.lcm(scale, c.denominator)
        det *= scale
    matrix: list[list[int]] = []
    added_so_far = 0
    for i, row in enumerate(program.rows):
        allowed = program.num_vars + added_so_far
        dense = [0] * total
        for j, coeff in row.coeffs:
            if j >= allowed:
                raise ValueError(
                    f"row {i} references variable x{j} which does not exist yet"
                )
            dense[j] = coeff.numerator * (det // coeff.denominator)
        if row.relation != EQUAL:
            dense[program.num_vars + added_so_far] = (
                det if row.relation == LESS_EQ else -det
            )
            added_so_far += 1
        dense.append(row.rhs.numerator * (det // row.rhs.denominator))
        matrix.append(dense)
    return matrix, det, total


def _first_positive(cost: Sequence[int], limit: int):
    """Bland pricing on a linear cost: the first column below limit with a
    positive reduced cost, or -1 at an optimum."""
    def enter(tab: Tableau) -> int:
        red = tab.reduced(cost)
        for j in range(limit):
            if red[j] > 0:
                return j
        return -1
    return enter


def _bland(tab: Tableau, price) -> Status:
    """The pivot loop of every solver: `price(tab)` names the entering
    column (-1 at an optimum) and Bland's ratio test the leaving row."""
    while True:
        enter = price(tab)
        if enter < 0:
            return Status.OPTIMAL
        leave = tab.leaving_row(enter)
        if leave < 0:
            return Status.UNBOUNDED
        tab.pivot(leave, enter)


def feasible_tableau(program: LinearProgram) -> Tableau | None:
    """Phase one: returns a primal-feasible tableau over the real columns,
    or None when the system is infeasible. Redundant rows are dropped."""
    matrix, det, ncols = _integer_system(program)
    m = len(matrix)
    for i in range(m):
        if matrix[i][-1] < 0:
            matrix[i] = [-v for v in matrix[i]]

    basis = [-1] * m
    for j in range(ncols):
        hit = -1
        ok = True
        for i in range(m):
            v = matrix[i][j]
            if v:
                if hit >= 0 or v != det:
                    ok = False
                    break
                hit = i
        if ok and hit >= 0 and basis[hit] < 0:
            basis[hit] = j

    art_cols = [i for i in range(m) if basis[i] < 0]
    if not art_cols:
        return Tableau(ncols, matrix, basis, det)

    total = ncols + len(art_cols)
    for i in range(m):
        row = matrix[i]
        matrix[i] = row[:ncols] + [0] * len(art_cols) + row[ncols:]
    for order, i in enumerate(art_cols):
        matrix[i][ncols + order] = det
        basis[i] = ncols + order

    tab = Tableau(total, matrix, basis, det)
    cost = [0] * ncols + [-1] * len(art_cols)
    if _bland(tab, _first_positive(cost, ncols)) is not Status.OPTIMAL:
        raise InvariantViolated("phase one is unbounded, but -sum(artificials) <= 0")
    if tab.value_of(cost) != 0:
        return None

    drop: list[int] = []
    for i, var in enumerate(tab.basis):
        if var >= ncols:
            # Artificial stuck at zero: swap a real column in, else the row
            # is redundant.
            row = tab.rows[i]
            enter = next((j for j in range(ncols) if row[j]), -1)
            if enter >= 0:
                tab.pivot(i, enter)
            else:
                drop.append(i)
    for i in reversed(drop):
        del tab.rows[i]
        del tab.basis[i]
    # A dropped row's artificial stays a factor of det: det is then the
    # basis determinant of the kept rows times that row's scale, a constant
    # that every later pivot carries along, so divisions stay exact.
    tab.rows = [row[:ncols] + row[-1:] for row in tab.rows]
    tab.ncols = ncols
    return tab


def solve_lp(program: LinearProgram) -> SimplexState:
    """Two-phase exact simplex. Deterministic: equal inputs give equal
    final bases."""
    tab = feasible_tableau(program)
    if tab is None:
        return SimplexState(Status.INFEASIBLE, program.num_vars, (), ())
    cost, _, _ = integer_form(AffineForm(program.objective), tab.ncols)
    status = _bland(tab, _first_positive(cost, tab.ncols))
    return tab.state(status)


def reduced_row(state: SimplexState, form: AffineForm) -> tuple[dict[int, Fraction], Fraction]:
    """Reduced coefficients of an affine form at an optimal state.

    Returns ({nonbasic index: reduced coefficient}, value of the form at
    the state's point). The form is over structural variables; added
    variables carry zero cost.
    """
    tab = Tableau.of_state(state)
    cost, constant, scale = integer_form(form, tab.ncols)
    red = tab.reduced(cost)
    denominator = scale * tab.det
    value = Fraction(tab.value_of(cost, constant), denominator)
    return {j: Fraction(red[j], denominator) for j in state.nonbasis}, value
