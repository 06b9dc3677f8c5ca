"""Exact two-phase primal simplex and dual re-solves on an integer-preserving
tableau.

Rows may mix <=, >= and == relations. A row (`model.LinearRow`) holds
integers over one positive scale s, the lcm of the denominators of its
rational entries: its coefficients and right-hand side are s times the
row's. A row is converted once, where it is built, and no solver rescales
it. Standardization appends one slack or surplus variable per inequality
row, in row order, so a row's added variable has a predictable index
(structural count + row position when every row adds one). Added
variables are first-class: later rows may reference them, which is how
branch-and-cut expresses its rounds over slack coordinates.

Pivots run on integers (Edmonds 1967, Bareiss 1968, as in Avis' lrs) on a
dictionary (Chvatal 1983, ch. 2). The exact tableau [B^-1 A | B^-1 b] is
the integer tableau over one positive common denominator `det`, in which
every basic column is det times a unit column. So only the nonbasic
columns are stored: each row belongs to one basic variable (`basis`) and
holds its entries in the columns `cols`, which name the nonbasic
variables, then its right-hand side. For an all-inequality system over n
structural variables there are always n columns, however many rows are
appended.

A pivot on row r and column s with entry p (sign sigma) exchanges
basis[r] and cols[s]. Every other row a, with entry f in column s, becomes
(|p| * a - f * sigma * prow) // det, and its entry in column s, now the
leaving variable's, becomes -sigma * f. The pivot row keeps its entries
times sigma, except column s, which becomes sigma * det. Then det = |p|,
the determinant of the new basis (times a constant factor once phase one
drops a redundant row), so every division is exact and entries stay
bounded by minors of the scaled input. This is the full integer tableau's
pivot restricted to the new nonbasic columns. A `SimplexState` keeps the
final integer rows; `Fraction`s are built only when a point or a reduced
row is read off it.

Phase one gives each row without a starting basic variable an artificial
one. An artificial is basic when it is made and is never a column: its
column would be det times a unit column while basic, and once it leaves
the basis phase one never prices it again, so the pivot that takes it out
deletes the column it would take.

One builder writes every appended row (`_written`): a new row's integer
data a, over its scale s, is read as it is stored and written over the
dictionary columns as det*a - sum_i a[basis_i]*row_i, the earlier rows and
det are multiplied by s, and the row's slack or artificial variable has
entry det. The extended basis matrix is block triangular over the old
basis and the new variable's entry s, so det keeps its relation to the
basis determinant and every later division stays exact. Each slack belongs
to its row as written, on every path.

There is one cold builder and one warm path. `feasible_tableau` solves
from scratch: it appends every row to the empty system, whose columns are
the structural variables (det ends as the product of the row scales, and
each row is the row as written times det), and runs phase one. A slack
starts basic when its row needs no artificial; otherwise it is a column. A
row may reference the slack of an earlier row; that slack is then a column
from the start instead of being eliminated. Only solves from scratch build
this way: `solve_lp` (each MILP root and the instance checks) and the
search root (`fractional.solve_lfp` without a parent).

`resolve_after` re-solves every child from its parent's optimal basis by
dual simplex (Lemke 1954): a branch-and-bound child (`milp.solve_milp`)
for the program's objective, and every search node but the root
(`fractional.solve_lfp` with a parent) for a linear cost whose reduced row
is the parent's ratio gradient. Each appended inequality row keeps its
slack basic, even at a negative right-hand side, so the extended basis is
still dual feasible: no artificial, no phase one. Dual pivots then restore
primal feasibility while every reduced cost stays <= 0. Against cycling it
uses Bland's rule for the dual (Bland 1977): of the rows with a negative
right-hand side, the one whose basic variable is smallest leaves; of that
row's negative entries a, the column with the smallest |reduced cost| /
|a| enters, ties to the smallest variable. A leaving row with no negative
entry proves the child infeasible. The objective value never rises across
a dual pivot.

A tableau carries the reduced rows of the costs it prices (`Tableau.costs`,
seeded by one `reduced` call per cost). A reduced row det * (c - c_B B^-1 A),
kept over the dictionary columns,
changes under a pivot as a constraint row does, so `pivot` updates it with
the same exact formula, and it equals a fresh `reduced(c)` entry for entry
after every pivot. The dual loop's cost row also ends in -det * c_B B^-1 b,
an entry the same update carries like a right-hand side, so the objective
value is read off it.

Bland's rule in every primal loop (of the eligible columns, the one
naming the smallest variable enters; ratio ties go to the smallest basic
variable) and its dual form in the dual loop, so solves are deterministic
and never cycle. Every
test compares the sign of an integer multiple (by a positive factor) of
the rational quantity it stands for, so the walk is the one the rational
tableau takes.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InvariantViolated, NotOptimal
# The row type, its relations and constraint_rows live in model; the
# solvers' callers import them from here as well.
from .model import (
    EQUAL,
    GREATER_EQ,
    LESS_EQ,
    ZERO,
    AffineForm,
    LinearRow,
    as_fraction,
    constraint_rows,
)


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


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
    """Final tableau snapshot in dictionary form: one integer row per basic
    variable over the nonbasic columns `cols`, its right-hand side last, so
    rows / det is B^-1 [N | b]. The rows are the tableau's own lists,
    shared without a copy; pivots replace rows instead of writing into
    them. An INFEASIBLE state has no basis, rows or columns, and its
    num_vars counts the structural variables only."""

    status: Status
    num_vars: int
    basis: tuple[int, ...]
    rows: tuple[list[int], ...]
    det: int = 1
    cols: tuple[int, ...] = ()

    @property
    def nonbasis(self) -> tuple[int, ...]:
        return tuple(sorted(self.cols))

    def full_point(self) -> tuple[Fraction, ...]:
        point = [ZERO] * self.num_vars
        for var, row in zip(self.basis, self.rows):
            point[var] = Fraction(row[-1], self.det)
        return tuple(point)

    def structural_point(self, n: int) -> tuple[Fraction, ...]:
        return self.full_point()[:n]


def integer_form(form: AffineForm, ncols: int) -> tuple[list[int], int, int]:
    """(cost, constant, scale): scale * form as integers (`form.scaled`),
    the cost padded with zeros to ncols columns."""
    coeffs, constant, scale = form.scaled
    return [*coeffs, *[0] * (ncols - len(coeffs))], constant, scale


class Tableau:
    """Mutable integer dictionary: rows / det is B^-1 [N | b], one row per
    basic variable (`basis`) over the nonbasic columns (`cols`), each row
    ending in its right-hand side. `ncols` counts the real variables; an
    index at or above it names a phase-one artificial, which is only ever
    basic. `costs` holds the reduced rows of the costs being priced,
    carried through every pivot (see `carry`). Internal to the solvers;
    snapshot with `state()` before handing results out. Costs passed in
    are integer (see integer_form), one entry per variable."""

    __slots__ = ("ncols", "rows", "basis", "det", "cols", "costs")

    def __init__(self, ncols, rows, basis, det, cols):
        self.ncols = ncols
        self.rows = rows
        self.basis = basis
        self.det = det
        self.cols = cols
        self.costs: list[list[int]] = []

    @classmethod
    def of_state(cls, state: SimplexState) -> "Tableau":
        """The integer tableau behind an optimal state, for reduced rows or
        further pivots; pivoting it leaves the state unchanged."""
        if state.status is not Status.OPTIMAL:
            raise NotOptimal(f"reduced rows need an optimal state, got {state.status}")
        return cls(state.num_vars, list(state.rows), list(state.basis), state.det, list(state.cols))

    def pivot(self, row_idx: int, col: int) -> None:
        """Exchange basis[row_idx] and cols[col] (see the module docstring
        for the update)."""
        rows, det, cols = self.rows, self.det, self.cols
        prow = rows[row_idx]
        piv = prow[col]
        sign = 1
        if piv < 0:
            # Scaling a row by -1 leaves the system and the pivot's result
            # unchanged and keeps det positive.
            sign, piv = -1, -piv
            prow = [-v for v in prow]
        for target, skip in ((rows, row_idx), (self.costs, -1)):
            for i, row in enumerate(target):
                if i == skip:
                    continue
                factor = row[col]
                if factor:
                    row = [(piv * a - factor * b) // det for a, b in zip(row, prow)]
                    row[col] = -sign * factor
                    target[i] = row
                elif piv != det:
                    target[i] = [piv * a // det for a in row]
        rows[row_idx] = prow[:col] + [sign * det] + prow[col + 1:]
        leaving = self.basis[row_idx]
        self.basis[row_idx] = cols[col]
        self.det = piv
        if leaving < self.ncols:
            cols[col] = leaving
        else:
            # An artificial left the basis; nothing prices it again.
            del cols[col]
            for target in (rows, self.costs):
                target[:] = [row[:col] + row[col + 1:] for row in target]

    def carry(self, *costs: Sequence[int]) -> None:
        """Price these costs from now on: `costs` becomes their reduced
        rows, which every later pivot updates in place of a recomputation."""
        self.costs = [self.reduced(cost) for cost in costs]

    def reduced(self, cost: Sequence[int]) -> list[int]:
        """det * (cost - cost_B . B^-1 A) over the dictionary columns (it is
        zero at every basic column): the reduced costs scaled by det > 0."""
        red = [self.det * cost[var] for var in self.cols]
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
        """Bland's ratio test on a dictionary column: the row with the
        smallest rhs / a over a > 0, ties to the smallest basic index; -1
        if none. det cancels from rhs / a, and ratios compare by
        cross-multiplying positive pivots."""
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
        return SimplexState(
            status, self.ncols, tuple(self.basis), tuple(self.rows), self.det, tuple(self.cols)
        )


def _carried_cost(tab: Tableau) -> list[int]:
    """Plain simplex pricing: the carried reduced row of the one cost."""
    return tab.costs[0]


def _bland(tab: Tableau, price) -> Status:
    """The pivot loop of every solver. `price(tab)` gives one value per
    dictionary column; of the columns with a positive value, the one naming
    the smallest variable enters (Bland), and none at an optimum. Bland's
    ratio test picks the leaving row."""
    while True:
        cols = tab.cols
        enter = min((var for var, v in zip(cols, price(tab)) if v > 0), default=-1)
        if enter < 0:
            return Status.OPTIMAL
        col = cols.index(enter)
        leave = tab.leaving_row(col)
        if leave < 0:
            return Status.UNBOUNDED
        tab.pivot(leave, col)


def _phase_one(
    matrix: list[list[int]], basis: list[int], det: int, ncols: int, cols: list[int]
) -> Tableau | None:
    """Phase one from a partial basis: a primal-feasible tableau over the
    ncols real variables, or None when the rows are infeasible.

    `matrix` is a dictionary over `cols` whose right-hand sides are all
    >= 0. Each row whose basis entry is -1 gets an artificial variable from
    ncols on, basic in that row; like every basic variable it has no
    column. Bland on -sum(artificials) prices the real columns, and an
    artificial that leaves the basis loses the column it would take. An
    artificial left basic at zero is swapped for a real column of its row,
    and a row with none is redundant and dropped.
    """
    art_rows = [i for i, var in enumerate(basis) if var < 0]
    for order, i in enumerate(art_rows):
        basis[i] = ncols + order
    tab = Tableau(ncols, matrix, basis, det, cols)
    if not art_rows:
        return tab

    cost = [0] * ncols + [-1] * len(art_rows)
    tab.carry(cost)
    if _bland(tab, _carried_cost) is not Status.OPTIMAL:
        raise InvariantViolated("phase one is unbounded, but -sum(artificials) <= 0")
    if tab.value_of(cost) != 0:
        return None
    tab.costs = []

    drop: list[int] = []
    for i, var in enumerate(tab.basis):
        if var >= ncols:
            enter = min((v for v, a in zip(tab.cols, tab.rows[i]) if a), default=-1)
            if enter >= 0:
                tab.pivot(i, tab.cols.index(enter))
            else:
                drop.append(i)
    # A dropped row's artificial stays a factor of det: det is then the
    # basis determinant of the kept rows times that artificial's entry, a
    # constant that every later pivot carries along, so divisions stay exact.
    for i in reversed(drop):
        del tab.rows[i]
        del tab.basis[i]
    return tab


def _written(
    tab: Tableau, row: LinearRow, column: dict[int, int], stated: int, basic: dict[int, int], slack: int
) -> list[int]:
    """`row` over tab's dictionary columns, right-hand side last, as the row
    of its slack (a >= row is negated). With a the row's integer data
    (row.coeffs and row.rhs, which are its scale s times the row), it is
    det*a - sum_i a[basis_i]*row_i for the basic variables `basic` maps to
    their rows. Then tab's rows and det are multiplied by s, and the
    returned row is over the new det.

    `column` maps each nonbasic variable to its column: the first `stated`
    are those of the system being extended, the rest slack columns of this
    call, in which every eliminated row is zero. Variables from `slack` on
    do not exist yet.
    """
    det = tab.det
    # det * a over the extended system's columns and the right-hand side
    # (head) and over this call's slack columns (tail).
    head = [0] * stated
    head.append(det * row.rhs)
    tail = [0] * (len(column) - stated)
    eliminate = []
    for j, coeff in row.coeffs:
        if j >= slack:
            raise ValueError(f"a row references variable x{j}, which does not exist yet")
        k = column.get(j)
        if k is None:
            eliminate.append((coeff, tab.rows[basic[j]]))
        elif k < stated:
            head[k] = det * coeff
        else:
            tail[k - stated] = det * coeff
    for factor, basic_row in eliminate:
        head = [x - factor * y for x, y in zip(head, basic_row)]
    new = head[:-1] + tail + head[-1:] if tail else head
    scale = row.scale
    if scale != 1:
        tab.rows = [[scale * v for v in r] for r in tab.rows]
        tab.det *= scale
    if row.relation == GREATER_EQ:
        new = [-v for v in new]
    return new


def feasible_tableau(program: LinearProgram) -> Tableau | None:
    """Phase one from scratch: a primal-feasible tableau over the real
    columns, or None when the program's rows are infeasible.

    `_written` appends every row to the empty system over the structural
    columns; an inequality row's slack, the next variable from num_vars on,
    has entry det, so it is the slack of the row as written. A row whose
    right-hand side is then negative is negated. A slack is basic from the
    start unless a later row references it (it is then a column) or its
    row was negated; those rows and equality rows get an artificial.
    """
    n, rows = program.num_vars, program.rows
    cols = list(range(n))
    tab = Tableau(n, [], [], 1, cols)
    # Coefficients are sorted by variable, so only a row whose last one is
    # at or past n references a slack.
    referenced = {
        j
        for r in rows
        if r.coeffs and r.coeffs[-1][0] >= n
        for j, _ in r.coeffs
        if j >= n
    }
    column = {var: var for var in cols}
    slack = n
    for row in rows:
        new = _written(tab, row, column, n, {}, slack)
        var = -1
        if row.relation != EQUAL:
            var, slack = slack, slack + 1
            if new[-1] < 0 or var in referenced:
                column[var] = len(cols)
                cols.append(var)
                new.insert(-1, tab.det)
                var = -1
        if new[-1] < 0:
            new = [-v for v in new]
        tab.rows.append(new)
        tab.basis.append(var)
    # A row has no entry in the slack columns added after it: there it is 0.
    width = len(cols) + 1
    matrix = [r if len(r) == width else r[:-1] + [0] * (width - len(r)) + r[-1:] for r in tab.rows]
    return _phase_one(matrix, tab.basis, tab.det, slack, cols)


def resolve_after(
    parent: SimplexState, rows: Sequence[LinearRow], cost: Sequence[int]
) -> Tableau | None:
    """Maximize `cost` . x over the system `parent` was solved on plus the
    inequality `rows`, by dual simplex from the parent's basis: the optimal
    tableau, or None when the extended system is infeasible. `cost` is
    integer (see integer_form), over the parent's columns at least, and the
    parent must be optimal for it. The parent is left unchanged.

    Each row is written over the dictionary columns by `_written` and its
    slack, the next variable from parent.num_vars on, is basic in it, even
    at a negative right-hand side: the basis stays dual feasible, so there
    is no artificial and no phase one. A row may reference the parent's
    variables and the slacks of earlier rows in `rows`; basic ones are
    eliminated. The reduced row of `cost`, with -det times the objective
    value appended, is carried through the pivots of `_dual_bland`.

    Callers, each on a parent's final state: `milp.solve_milp` for every
    branch-and-bound child (one branch row), and `fractional.solve_lfp` for
    every search node but the root (its branch row or round rows), which
    goes on to the ratio phase on the returned tableau.
    """
    tab = Tableau.of_state(parent)
    cols = tab.cols
    column = {var: k for k, var in enumerate(cols)}
    basic = {var: i for i, var in enumerate(tab.basis)}
    slack = tab.ncols
    for row in rows:
        if row.relation == EQUAL:
            raise ValueError("a dual re-solve appends inequality rows only")
        new = _written(tab, row, column, len(cols), basic, slack)
        basic[slack] = len(tab.rows)
        tab.rows.append(new)
        tab.basis.append(slack)
        slack += 1
    tab.ncols = slack
    cost = [*cost, *[0] * (slack - len(cost))]
    red = tab.reduced(cost)
    if any(v > 0 for v in red):
        raise NotOptimal("the parent's basis is not optimal for the cost")
    red.append(-tab.value_of(cost))
    tab.costs = [red]
    return tab if _dual_bland(tab) else None


def _dual_bland(tab: Tableau) -> bool:
    """Dual simplex from a dual-feasible tableau whose one carried cost row
    ends in -det times the objective value: True at a primal-feasible
    basis, which is then optimal, and False when the rows are infeasible.

    Bland's rule for the dual (Bland 1977): of the rows with a negative
    right-hand side, the one whose basic variable is smallest leaves; of its
    negative entries a, the one with the smallest |red| / |a| enters, ties
    to the smallest variable, which keeps every reduced cost <= 0. det
    cancels from the ratio, and ratios compare by cross-multiplying. A row
    with no negative entry proves the system infeasible. A value that rises
    across a pivot is a defect (InvariantViolated).
    """
    while True:
        rows, cols, red = tab.rows, tab.cols, tab.costs[0]
        leaving = min(
            ((var, i) for i, (var, row) in enumerate(zip(tab.basis, rows)) if row[-1] < 0),
            default=None,
        )
        if leaving is None:
            return True
        leave = leaving[1]
        prow = rows[leave]
        enter = -1
        best_red = best_a = 0
        for k, var in enumerate(cols):
            a = prow[k]
            if a < 0:
                left, right = red[k] * best_a, best_red * a
                if enter < 0 or left < right or (left == right and var < cols[enter]):
                    enter, best_red, best_a = k, red[k], a
        if enter < 0:
            return False
        value, det = red[-1], tab.det
        tab.pivot(leave, enter)
        if tab.costs[0][-1] * det < value * tab.det:
            raise InvariantViolated("the objective value rose across a dual pivot")


def optimize(tab: Tableau, objective: Sequence[Fraction]) -> SimplexState:
    """Phase two: maximize objective . x (over the leading columns; the
    rest cost zero) by Bland pivots from the primal-feasible `tab`, which
    it pivots in place. The final state is OPTIMAL or UNBOUNDED."""
    cost, _, _ = integer_form(AffineForm(objective), tab.ncols)
    tab.carry(cost)
    return tab.state(_bland(tab, _carried_cost))


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
    return {j: Fraction(r, denominator) for j, r in sorted(zip(tab.cols, red))}, value
