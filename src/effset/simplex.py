"""Exact two-phase primal simplex on an integer-preserving tableau.

Rows may mix <=, >= and == relations. Standardization appends one slack or
surplus variable per inequality row, in row order, so a row's added variable
has a predictable index (structural count + row position when every row adds
one). Added variables are first-class: later rows may reference them, which
is how branch-and-cut expresses its rounds over slack coordinates.

Pivots run on integers (Edmonds 1967, Bareiss 1968, as in Avis' lrs). The
tableau keeps integer rows and right-hand sides plus one positive common
denominator `det`, so the exact tableau is rows / det. Each input row is
scaled to integers by the lcm of its denominators, and det starts as the
product of those scales: the determinant of the starting unit basis in the
scaled system. A pivot on element p sets det to |p|, the determinant of
the new basis (times a constant factor once phase one drops a redundant
row), so every division in a pivot is exact, entries stay bounded by
minors of the scaled input, and `Fraction`s appear only in the returned
`SimplexState`.

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
from .model import AffineForm, as_fraction

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


@dataclass(frozen=True)
class LinearProgram:
    """Maximize objective . x + constant over the rows plus x >= 0.

    num_vars counts structural variables; the objective is over those.
    Row coefficients may also touch slack variables of earlier rows.
    """

    num_vars: int
    objective: tuple[Fraction, ...]
    objective_constant: Fraction
    rows: tuple[LinearRow, ...]

    @classmethod
    def of(cls, num_vars, objective, rows, constant=0) -> "LinearProgram":
        dense = [ZERO] * num_vars
        if isinstance(objective, Mapping):
            for j, v in objective.items():
                dense[j] = as_fraction(v)
        else:
            for j, v in enumerate(objective):
                dense[j] = as_fraction(v)
        return cls(num_vars, tuple(dense), as_fraction(constant), tuple(rows))


@dataclass(frozen=True)
class SimplexState:
    """Final tableau snapshot. matrix / det is B^-1 A over all real
    variables, one integer row per constraint; basic_values is B^-1 b.
    The matrix rows are the tableau's own lists, shared without a copy;
    pivots replace rows instead of writing into them."""

    status: Status
    num_vars: int
    basis: tuple[int, ...]
    nonbasis: tuple[int, ...]
    basic_values: tuple[Fraction, ...]
    matrix: tuple[list[int], ...]
    det: int = 1

    def full_point(self) -> tuple[Fraction, ...]:
        point = [ZERO] * self.num_vars
        for var, val in zip(self.basis, self.basic_values):
            point[var] = val
        return tuple(point)

    def structural_point(self, n: int) -> tuple[Fraction, ...]:
        return self.full_point()[:n]


def integer_cost(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(scale * values as ints, scale), scale the lcm of the denominators."""
    scale = 1
    for v in values:
        scale = math.lcm(scale, v.denominator)
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _scaled_reduced(rows, basis, det: int, cost: Sequence[int]) -> list[int]:
    red = [det * c for c in cost]
    for row, var in zip(rows, basis):
        cb = cost[var]
        if cb:
            red = [a - cb * b for a, b in zip(red, row)]
    return red


class Tableau:
    """Mutable dense integer tableau; the exact tableau is rows / det and
    rhs / det. Internal to the solvers; snapshot with `state()` before
    handing results out. Costs passed in are integer (see integer_cost)."""

    __slots__ = ("ncols", "rows", "rhs", "basis", "det")

    def __init__(self, ncols, rows, rhs, basis, det):
        self.ncols = ncols
        self.rows = rows
        self.rhs = rhs
        self.basis = basis
        self.det = det

    def pivot(self, row_idx: int, col: int) -> None:
        rows, rhs, det = self.rows, self.rhs, self.det
        prow = rows[row_idx]
        piv = prow[col]
        if piv < 0:
            # Scaling a row by -1 leaves the system and the pivot's result
            # unchanged and keeps det positive.
            piv = -piv
            prow = rows[row_idx] = [-v for v in prow]
            rhs[row_idx] = -rhs[row_idx]
        pivot_rhs = rhs[row_idx]
        for i, row in enumerate(rows):
            if i == row_idx:
                continue
            factor = row[col]
            if factor:
                rows[i] = [(piv * a - factor * b) // det for a, b in zip(row, prow)]
                rhs[i] = (piv * rhs[i] - factor * pivot_rhs) // det
            elif piv != det:
                rows[i] = [piv * a // det for a in row]
                rhs[i] = piv * rhs[i] // det
        self.basis[row_idx] = col
        self.det = piv

    def reduced(self, cost: Sequence[int]) -> list[int]:
        """det * (cost - cost_B . B^-1 A) over every column (zero at basic
        ones): the reduced costs scaled by the positive det."""
        return _scaled_reduced(self.rows, self.basis, self.det, cost)

    def value_of(self, cost: Sequence[int], constant: int = 0) -> int:
        """det * (constant + cost . x) at the tableau's point."""
        total = self.det * constant
        for var, val in zip(self.basis, self.rhs):
            c = cost[var]
            if c and val:
                total += c * val
        return total

    def leaving_row(self, col: int) -> int:
        """Bland's ratio test on a column: the row with the smallest
        rhs / a over a > 0, ties to the smallest basic index; -1 if none.
        det cancels from rhs / a, and ratios compare by cross-multiplying
        positive pivots."""
        rhs, basis = self.rhs, self.basis
        leave = best_var = -1
        best_num = best_den = 0
        for i, row in enumerate(self.rows):
            a = row[col]
            if a > 0:
                left, right = rhs[i] * best_den, best_num * a
                if leave < 0 or left < right or (left == right and basis[i] < best_var):
                    leave, best_var, best_num, best_den = i, basis[i], rhs[i], a
        return leave

    def state(self, status: Status) -> SimplexState:
        basic = set(self.basis)
        det = self.det
        return SimplexState(
            status=status,
            num_vars=self.ncols,
            basis=tuple(self.basis),
            nonbasis=tuple(j for j in range(self.ncols) if j not in basic),
            basic_values=tuple(Fraction(v, det) for v in self.rhs),
            matrix=tuple(self.rows),
            det=det,
        )


def _infeasible_state(ncols: int) -> SimplexState:
    return SimplexState(Status.INFEASIBLE, ncols, (), (), (), ())


def _integer_system(program: LinearProgram) -> tuple[list[list[int]], list[int], int, int]:
    """Dense equality system with one slack/surplus per inequality row,
    scaled to integers over one common denominator: row i is multiplied by
    det = product of the lcm of each row's denominators. Returns (rows, rhs,
    det, total_columns)."""
    num_added = sum(1 for r in program.rows if r.relation != EQUAL)
    total = program.num_vars + num_added
    det = 1
    for row in program.rows:
        scale = row.rhs.denominator
        for _, c in row.coeffs:
            scale = math.lcm(scale, c.denominator)
        det *= scale
    matrix: list[list[int]] = []
    rhs: list[int] = []
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
        matrix.append(dense)
        rhs.append(row.rhs.numerator * (det // row.rhs.denominator))
    return matrix, rhs, det, total


def _bland(tab: Tableau, cost: Sequence[int], enter_limit: int | None = None) -> Status:
    """Maximize an integer cost over the tableau. Entering column
    restricted to indices below enter_limit (used to keep artificials out)."""
    limit = tab.ncols if enter_limit is None else enter_limit
    while True:
        red = tab.reduced(cost)
        enter = -1
        for j in range(limit):
            if red[j] > 0:
                enter = j
                break
        if enter < 0:
            return Status.OPTIMAL
        leave = tab.leaving_row(enter)
        if leave < 0:
            return Status.UNBOUNDED
        tab.pivot(leave, enter)


def feasible_tableau(program: LinearProgram) -> Tableau | None:
    """Phase one: returns a primal-feasible tableau over the real columns,
    or None when the system is infeasible. Redundant rows are dropped."""
    matrix, rhs, det, ncols = _integer_system(program)
    m = len(matrix)
    for i in range(m):
        if rhs[i] < 0:
            matrix[i] = [-v for v in matrix[i]]
            rhs[i] = -rhs[i]

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
        return Tableau(ncols, matrix, rhs, basis, det)

    total = ncols + len(art_cols)
    for i in range(m):
        matrix[i] = matrix[i] + [0] * len(art_cols)
    for order, i in enumerate(art_cols):
        matrix[i][ncols + order] = det
        basis[i] = ncols + order

    tab = Tableau(total, matrix, rhs, basis, det)
    cost = [0] * ncols + [-1] * len(art_cols)
    if _bland(tab, cost, enter_limit=ncols) is not Status.OPTIMAL:
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
        del tab.rhs[i]
        del tab.basis[i]
    # A dropped row's artificial stays a factor of det: det is then the
    # basis determinant of the kept rows times that row's scale, a constant
    # that every later pivot carries along, so divisions stay exact.
    tab.rows = [row[:ncols] for row in tab.rows]
    tab.ncols = ncols
    return tab


def solve_lp(program: LinearProgram) -> SimplexState:
    """Two-phase exact simplex. Deterministic: equal inputs give equal
    final bases."""
    tab = feasible_tableau(program)
    if tab is None:
        ncols = program.num_vars + sum(
            1 for r in program.rows if r.relation != EQUAL
        )
        return _infeasible_state(ncols)
    cost, _ = integer_cost(program.objective)
    cost += [0] * (tab.ncols - program.num_vars)
    status = _bland(tab, cost)
    return tab.state(status)


def reduced_row(state: SimplexState, form: AffineForm) -> tuple[dict[int, Fraction], Fraction]:
    """Reduced coefficients of an affine form at an optimal state.

    Returns ({nonbasic index: reduced coefficient}, value of the form at
    the state's point). The form is over structural variables; added
    variables carry zero cost.
    """
    if state.status is not Status.OPTIMAL:
        raise NotOptimal(f"reduced rows need an optimal state, got {state.status}")
    cost, scale = integer_cost(form.coeffs)
    cost += [0] * (state.num_vars - len(cost))
    red = _scaled_reduced(state.matrix, state.basis, state.det, cost)
    value = sum((cost[var] * val for var, val in zip(state.basis, state.basic_values)), ZERO)
    denominator = scale * state.det
    return {j: Fraction(red[j], denominator) for j in state.nonbasis}, form.constant + value / scale
