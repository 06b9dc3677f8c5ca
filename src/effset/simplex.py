"""Exact two-phase primal simplex on an integer-preserving tableau.

Rows may mix <=, >= and == relations. Standardization appends one slack or
surplus variable per inequality row, in row order, so a row's added variable
has a predictable index (structural count + row position when every row adds
one). Added variables are first-class: later rows may reference them, which
is how branch-and-cut expresses its rounds over slack coordinates.

Pivots run on integers (Edmonds 1967, Bareiss 1968, as in Avis' lrs). The
tableau keeps integer rows, each ending in its right-hand side, plus one
positive common denominator `det`, so the exact tableau [B^-1 A | B^-1 b]
is rows / det. A pivot on element p sets det to |p|, the determinant of the
new basis (times a constant factor once phase one drops a redundant row),
so every division in a pivot is exact and entries stay bounded by minors
of the scaled input. A `SimplexState` keeps the final integer rows;
`Fraction`s are built only when a point or a reduced row is read off it.

One builder makes every tableau: `feasible_after` appends rows to a solved
state, and a solve from scratch appends every row to the empty state over
the structural columns. It writes a new row a (scaled to integers by the
lcm s of its denominators) in the state's basis as
det*a - sum_i a[basis_i]*row_i, multiplies the earlier rows and det by s,
and gives the row a slack or artificial column with entry det. The
extended basis matrix is block triangular over the old basis and the new
column's entry s, so det keeps its relation to the basis determinant and
every later division stays exact. From scratch, det ends as the product of
the row scales, the determinant of the starting unit basis, and each row
is the row as written times det. Each slack belongs to its row as written, on every
path. A row may reference the slack of an earlier row of the same call;
that slack then leaves the starting basis instead of being eliminated, as
a column that is no longer a unit column. Solves from scratch
(`feasible_tableau`, for `solve_lp` and a search root) build this way, and
so do children from their parent's state: the search's
(`fractional.solve_lfp` with a parent, which runs its ratio phase on the
returned tableau) and branch-and-bound's (`milp.solve_milp`, which runs
`optimize`, the phase two that `solve_lp` also ends with).

A tableau carries the reduced rows of the costs it prices (`Tableau.costs`,
seeded by one `reduced` call per cost). A reduced row det * (c - c_B B^-1 A)
changes under a pivot as a constraint row does, so `pivot` updates it with
the same exact formula, and it equals a fresh `reduced(c)` entry for entry
after every pivot.

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

    num_vars counts structural variables. Row coefficients may also touch
    slack variables of earlier rows, and the objective may price any added
    column: inequality row i adds column num_vars + (its position among
    the inequality rows).
    """

    num_vars: int
    objective: tuple[Fraction, ...]
    rows: tuple[LinearRow, ...]

    @classmethod
    def of(cls, num_vars, objective, rows) -> "LinearProgram":
        """objective may be a {index: value} mapping or a dense sequence;
        it is sized to num_vars or to the last column it names."""
        rows = tuple(rows)
        items = objective.items() if isinstance(objective, Mapping) else enumerate(objective)
        named = {j: as_fraction(v) for j, v in items}
        columns = num_vars + sum(1 for r in rows if r.relation != EQUAL)
        if any(not 0 <= j < columns for j in named):
            raise ValueError(f"the objective names a column outside the program's {columns}")
        dense = [ZERO] * max(num_vars, 1 + max(named, default=-1))
        for j, v in named.items():
            dense[j] = v
        return cls(num_vars, tuple(dense), rows)


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
    """Phase one from scratch: `feasible_after` on the empty system over
    the program's structural columns, so every row is appended. A primal-
    feasible tableau over the real columns, or None when the system is
    infeasible."""
    return feasible_after(SimplexState(Status.OPTIMAL, program.num_vars, (), ()), program.rows)


def feasible_after(state: SimplexState, rows: Sequence[LinearRow]) -> Tableau | None:
    """Phase one for the system `state` was solved on plus `rows`, from the
    state's optimal basis: a primal-feasible tableau, or None when the
    extended system is infeasible. The state is left unchanged.

    Each row, scaled to integers as a by the lcm s of its denominators, is
    written in the state's basis as det*a - sum_i a[basis_i]*row_i, each
    a[basis_i] read off det*a by an exact division (every basic column is
    det times a unit column). Then every earlier row and det are
    multiplied by s. An inequality row takes the next slack column from
    state.num_vars on: a >= row is negated first, and the slack gets the
    entry det, so it is the slack of the row as written. A row whose
    right-hand side is then negative is negated (again).

    A row may reference the state's columns and the slacks of earlier rows
    in `rows`. A basic state column is eliminated; a referenced slack of
    this call is not, and leaves the basis instead. A row's slack starts
    basic when its entry is det and no later row references it; every
    other row, equality rows included, gets an artificial.

    Callers: `feasible_tableau` on the empty state, `fractional.solve_lfp`
    for a search child (its cut and branch rows) and `milp.solve_milp` for
    a branch-and-bound child (one branch row), each on its parent's final
    state.
    """
    tab = Tableau.of_state(state)
    det, width = tab.det, tab.ncols
    ncols = width + sum(1 for r in rows if r.relation != EQUAL)
    pad = [0] * (ncols - width)
    matrix = [row[:-1] + pad + row[-1:] for row in tab.rows]
    basis = tab.basis
    owner: list[int] = []  # the matrix row of each slack this call adds
    for row in rows:
        scale = _row_scale(row)
        new = _dense_row(row, ncols, det * scale, width + len(owner))
        for var, basic_row in zip(state.basis, matrix):
            factor = new[var] // det
            if factor:
                new = [x - factor * y for x, y in zip(new, basic_row)]
        for j, _ in reversed(row.coeffs):
            if j < width:
                break
            basis[owner[j - width]] = -1
        if scale != 1:
            matrix = [[scale * v for v in r] for r in matrix]
            det *= scale
        var = -1
        if row.relation != EQUAL:
            var = width + len(owner)
            if row.relation == GREATER_EQ:
                new = [-v for v in new]
            new[var] = det
            owner.append(len(matrix))
        if new[-1] < 0:
            new = [-v for v in new]
        matrix.append(new)
        basis.append(var if var >= 0 and new[var] > 0 else -1)
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
