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

Two more invariants keep the integers the rational tableau's:
- Carried cost rows. A tableau carries the reduced rows of the costs it
  prices (`Tableau.costs`, seeded by one `reduced` call per cost). A
  reduced row det * (c - c_B B^-1 A) changes under a pivot as a constraint
  row does, so `pivot` updates it with the same exact formula, and it
  equals a fresh `reduced(c)` entry for entry after every pivot.
- Appended rows keep det. `feasible_after` writes a new row, scaled to
  integers as a by its own lcm, in an optimal basis as
  det*a - sum_i a[basis_i]*row_i and gives it a slack or artificial column
  with entry det. The extended basis matrix is block triangular over the
  old basis and a unit entry, so its determinant is the old one up to sign:
  det keeps its relation to the basis determinant, and every later
  division stays exact. The new slack is that of the integer-scaled row,
  as `constraint_rows` gives it; a system solved from scratch gives each
  slack to the row as written. Two callers solve children this way: the
  search (`fractional.solve_lfp` with a parent, which runs its ratio phase
  on the returned tableau) and branch-and-bound (`milp.solve_milp`, which
  runs `optimize`, the phase two that `solve_lp` also ends with).

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
    row ending in its right-hand side. `costs` holds the reduced rows of the
    costs being priced, carried through every pivot (see `carry`). Internal
    to the solvers; snapshot with `state()` before handing results out.
    Costs passed in are integer (see integer_form)."""

    __slots__ = ("ncols", "rows", "basis", "det", "costs")

    def __init__(self, ncols, rows, basis, det):
        self.ncols = ncols
        self.rows = rows
        self.basis = basis
        self.det = det
        self.costs: list[list[int]] = []

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
        for target, skip in ((rows, row_idx), (self.costs, -1)):
            for i, row in enumerate(target):
                if i == skip:
                    continue
                factor = row[col]
                if factor:
                    target[i] = [(piv * a - factor * b) // det for a, b in zip(row, prow)]
                elif piv != det:
                    target[i] = [piv * a // det for a in row]
        self.basis[row_idx] = col
        self.det = piv

    def carry(self, *costs: Sequence[int]) -> None:
        """Price these costs from now on: `costs` becomes their reduced
        rows, which every later pivot updates in place of a recomputation."""
        self.costs = [self.reduced(cost) for cost in costs]

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


def _row_scale(row: LinearRow) -> int:
    """The lcm of a row's denominators: scaled by it, the row is integer."""
    scale = row.rhs.denominator
    for _, c in row.coeffs:
        scale = math.lcm(scale, c.denominator)
    return scale


def _dense_row(row: LinearRow, ncols: int, scale: int, allowed: int) -> list[int]:
    """scale * row over ncols zero-padded columns, right-hand side last; no
    slack entry is set. The row may reference variables below `allowed`."""
    dense = [0] * ncols
    for j, coeff in row.coeffs:
        if j >= allowed:
            raise ValueError(f"a row references variable x{j}, which does not exist yet")
        dense[j] = coeff.numerator * (scale // coeff.denominator)
    dense.append(row.rhs.numerator * (scale // row.rhs.denominator))
    return dense


def _integer_system(program: LinearProgram) -> tuple[list[list[int]], int, int]:
    """Dense equality system with one slack/surplus per inequality row,
    scaled to integers over one common denominator: row i is multiplied by
    det = product of the lcm of each row's denominators, and ends in its
    right-hand side. Returns (rows, det, total_columns)."""
    num_added = sum(1 for r in program.rows if r.relation != EQUAL)
    total = program.num_vars + num_added
    det = math.prod(_row_scale(row) for row in program.rows)
    matrix: list[list[int]] = []
    slack = program.num_vars
    for row in program.rows:
        dense = _dense_row(row, total, det, slack)
        if row.relation != EQUAL:
            dense[slack] = det if row.relation == LESS_EQ else -det
            slack += 1
        matrix.append(dense)
    return matrix, det, total


def _first_positive(limit: int):
    """Bland pricing on the tableau's carried cost row: the first column
    below limit with a positive reduced cost, or -1 at an optimum."""
    def enter(tab: Tableau) -> int:
        red = tab.costs[0]
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


def _phase_one(matrix: list[list[int]], basis: list[int], det: int, ncols: int) -> Tableau | None:
    """Phase one from a partial basis: a primal-feasible tableau over the
    ncols real columns, or None when the rows are infeasible.

    Every right-hand side is >= 0, and each row whose basis entry is -1
    gets an artificial column (entry det) after the real ones; the others
    name a column that is det in their row and 0 in every other. Bland on
    -sum(artificials) prices the real columns. An artificial left basic at
    zero is swapped for a real column of its row, and a row with none is
    redundant and dropped.
    """
    art_rows = [i for i, var in enumerate(basis) if var < 0]
    if not art_rows:
        return Tableau(ncols, matrix, basis, det)
    k = len(art_rows)
    for i, row in enumerate(matrix):
        matrix[i] = row[:ncols] + [0] * k + row[ncols:]
    for order, i in enumerate(art_rows):
        matrix[i][ncols + order] = det
        basis[i] = ncols + order

    tab = Tableau(ncols + k, matrix, basis, det)
    cost = [0] * ncols + [-1] * k
    tab.carry(cost)
    if _bland(tab, _first_positive(ncols)) is not Status.OPTIMAL:
        raise InvariantViolated("phase one is unbounded, but -sum(artificials) <= 0")
    if tab.value_of(cost) != 0:
        return None
    tab.costs = []

    drop: list[int] = []
    for i, var in enumerate(tab.basis):
        if var >= ncols:
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
    # basis determinant of the kept rows times that artificial's entry, a
    # constant that every later pivot carries along, so divisions stay exact.
    tab.rows = [row[:ncols] + row[-1:] for row in tab.rows]
    tab.ncols = ncols
    return tab


def feasible_tableau(program: LinearProgram) -> Tableau | None:
    """Phase one from scratch: a primal-feasible tableau over the real
    columns, or None when the system is infeasible."""
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
    return _phase_one(matrix, basis, det, ncols)


def feasible_after(state: SimplexState, rows: Sequence[LinearRow]) -> Tableau | None:
    """Phase one for the system `state` was solved on plus `rows`, from the
    state's optimal basis: a primal-feasible tableau, or None when the
    extended system is infeasible. The state is left unchanged.

    Each row, scaled to integers as a by the lcm of its denominators, is
    written in that basis as det*a - sum_i a[basis_i]*row_i: no division.
    The rows may reference the state's columns only; the inequality rows
    take slack columns from state.num_vars on, in order, with entry det, so
    a row's slack is the slack of its integer-scaled form. A row whose slack
    would be negative, and every equality row, gets an artificial.

    Callers: `fractional.solve_lfp` for a search child (its cut and branch
    rows) and `milp.solve_milp` for a branch-and-bound child (one branch
    row), each on its parent's final state.
    """
    tab = Tableau.of_state(state)
    det, width = tab.det, tab.ncols
    ncols = width + sum(1 for r in rows if r.relation != EQUAL)
    pad = [0] * (ncols - width)
    matrix = [row[:-1] + pad + row[-1:] for row in tab.rows]
    basis = tab.basis
    slack = width
    for row in rows:
        a = _dense_row(row, ncols, _row_scale(row), width)
        new = [det * v for v in a]
        for var, basic_row in zip(state.basis, matrix):
            factor = a[var]
            if factor:
                new = [x - factor * y for x, y in zip(new, basic_row)]
        var = -1
        if row.relation != EQUAL:
            if row.relation == GREATER_EQ:
                new = [-v for v in new]
            new[slack] = det
            if new[-1] >= 0:
                var = slack
            slack += 1
        if new[-1] < 0:
            new = [-v for v in new]
        matrix.append(new)
        basis.append(var)
    return _phase_one(matrix, basis, det, ncols)


def optimize(tab: Tableau, objective: Sequence[Fraction]) -> SimplexState:
    """Phase two: maximize objective . x (over the leading columns; the
    rest cost zero) by Bland pivots from the primal-feasible `tab`, which
    it pivots in place. The final state is OPTIMAL or UNBOUNDED."""
    cost, _, _ = integer_form(AffineForm(objective), tab.ncols)
    tab.carry(cost)
    return tab.state(_bland(tab, _first_positive(tab.ncols)))


def solve_lp(program: LinearProgram) -> SimplexState:
    """Two-phase exact simplex. Deterministic: equal inputs give equal
    final bases."""
    tab = feasible_tableau(program)
    if tab is None:
        return SimplexState(Status.INFEASIBLE, program.num_vars, (), ())
    return optimize(tab, program.objective)


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
