"""Exact simplex on an integer-preserving tableau: dual simplex makes
every tableau feasible, primal simplex optimizes it.

Every row is an inequality, <= or >=. A row (`model.LinearRow`) holds
integers over one positive scale s, the lcm of the denominators of its
rational entries: its coefficients and right-hand side are s times the
row's. A row is converted once, where it is built, and no solver rescales
it; so is a program's objective (`LinearProgram.cost` over its `scale`).
Standardization appends one slack or surplus variable per row, in row
order, so row i adds column n + i over n structural variables. Added
variables are first-class: later rows may reference them, which is how
branch-and-cut expresses its rounds over slack coordinates.

Pivots run on integers (Edmonds 1967, Bareiss 1968, as in Avis' lrs) on a
dictionary (Chvatal 1983, ch. 2). The exact tableau [B^-1 A | B^-1 b] is
the integer tableau over one positive common denominator `det`, in which
every basic column is det times a unit column. So only the nonbasic
columns are stored: each row belongs to one basic variable (`basis`) and
holds its entries in the columns `cols`, which name the nonbasic
variables, then its right-hand side. Over n structural variables there
are always n columns, however many rows are appended.

A pivot on row r and column s with entry p (sign sigma) exchanges
basis[r] and cols[s]. Every other row a, with entry f in column s, becomes
(|p| * a - f * sigma * prow) // det, and its entry in column s, now the
leaving variable's, becomes -sigma * f. The pivot row keeps its entries
times sigma, except column s, which becomes sigma * det. Then det = |p|,
the determinant of the new basis, so every division is exact and entries
stay bounded by minors of the scaled input. This is the full
integer tableau's pivot restricted to the new nonbasic columns. A
`SimplexState` keeps the final integer rows and reads its point off them
in ints (`vertex`); `Fraction`s are built only for its Fraction view
(`structural_point`) or a reduced row.

One path builds every tableau (`resolve_after`): append rows to a solved
state, then run the dual loop. A solve from scratch appends every row to
the empty state over the structural columns; a child appends its rows to
its parent's optimal basis. A new row's integer data a, over its scale s,
is read as it is stored and written over the dictionary columns as
det*a - sum_i a[basis_i]*row_i (`_written`), so a row over an earlier
slack, or any basic variable, eliminates it; the earlier rows and det are
multiplied by s, and the row's slack has entry det. The extended basis
matrix is block triangular over the old basis and the slack's entry s
(+s for <=, -s for >=), so det stays |det B| for the basis columns B of
the integer standard form and every later division stays exact. Each
slack belongs to its row as written, on every path, and is basic in it
when the row is appended, even at a negative right-hand side. Every
variable is structural or a slack.

A row marked `implied` is the one exception: its column is reserved
(`ncols` counts it, so every later slack keeps its number) but no row is
written, and the variable is neither basic nor in `cols`. `presolve` marks
an instance's rows the others imply with strict slack, once per instance
(`ProblemInstance.rows`), so no tableau built over them, at a search node,
a membership MILP node, an instance check or an oracle bound, updates
them. Such a slack is positive at every feasible point, so it is basic
at every feasible basis, never leaves in a primal ratio test and never
enters a round's index set; the basis matrix is block triangular over
its unit column, so det and every other row are unchanged. Only the dual
loop's choice of leaving row at an infeasible basis could see the row.

The dual loop makes the tableau feasible: dual simplex (Lemke 1954,
`_dual_bland`), under Bland's rule for the dual (Bland 1977): of the
rows with a negative right-hand side, the one whose basic variable is
smallest leaves; of that row's negative entries a, the column with the
smallest |reduced cost| / |a| enters, ties to the smallest variable. A
leaving row with no negative entry proves the system infeasible. It
needs a basis that is dual feasible for its cost, and the rule is finite
under any degeneracy; its first cost row is priced once, and a positive
entry in it refuses the basis (NotOptimal). `feasible_tableau(n, rows)`
re-solves the empty state over n structural columns for the zero cost,
for which every basis is dual feasible, so it is a complete phase one
that reads rows and no objective: `solve_lp` (each MILP root) passes
its program's rows; the instance checks and the oracle's variable maxima
(`validate.feasible_start`) pass the rows once and optimize each cost
from a copy of the tableau; and the search root and its companion
maximum (`fractional.maximize` without a parent) pass the instance's
rows as they are. `resolve_after` re-solves every child for a cost its parent's
basis is optimal for: a branch-and-bound child (`milp.solve_milp`) for
the program's objective, and every search node but the root
(`fractional.solve_lfp` with a parent) for the linear cost q*P - p*Q
whose reduced row is the parent's ratio gradient. The appended rows
leave that basis dual feasible, and the objective value never rises
across a dual pivot.

A tableau carries the reduced rows of the integer costs it prices
(`Tableau.costs`, seeded by `carry`, which names the costs in
`Tableau.priced`). A reduced row det * (c - c_B B^-1 A), kept over the
dictionary columns and ending in -det * c_B B^-1 b, changes under a pivot
as a constraint row does, so `pivot` updates it with the same exact
formula, and it equals a fresh `reduced(c)` followed by -`value_of(c)`
entry for entry after every pivot; an appended row's scale multiplies it
with the rows. The carried rows persist in the solved `SimplexState` and
seed every re-solve from it: a MILP child re-solves on its parent's
objective row, and a search child prices q*nu - p*mu off its parent's
numerator and denominator rows nu and mu, which then ride on into the
ratio phase. No re-solve computes a reduced row afresh.

The primal loop optimizes a feasible tableau under Bland's rule (of the
eligible columns, the one naming the smallest variable enters; ratio
ties go to the smallest basic variable), so solves are deterministic
and never cycle. Every
test compares the sign of an integer multiple (by a positive factor) of
the rational quantity it stands for, so the walk is the one the rational
tableau takes.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import zip_longest
from typing import Mapping, Sequence

from .errors import InvariantViolated, NotOptimal
# The row type and its relations live in model; the solvers' callers
# import them from here as well.
from .model import GREATER_EQ, LESS_EQ, AffineForm, LinearRow, integers


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """Maximize (cost / scale) . x over the rows plus x >= 0.

    num_vars counts structural variables. Row i adds column num_vars + i,
    its slack. Row coefficients may also touch slack variables of earlier
    rows, and the cost may price any of the num_vars + len(rows) columns
    but an implied row's slack, which no tableau holds.
    The cost is integer over one positive scale, as a row is (`of`).
    """

    num_vars: int
    cost: tuple[int, ...]
    scale: int
    rows: tuple[LinearRow, ...]

    @classmethod
    def of(cls, num_vars, objective, rows) -> "LinearProgram":
        """objective may be a {index: value} mapping or a dense sequence of
        ints, strings like '-4/7' or Fractions; it is sized to num_vars or
        to the last column it names, and converted once (`integers`), as
        `LinearRow.of` converts a row."""
        rows = tuple(rows)
        named = dict(objective.items() if isinstance(objective, Mapping) else enumerate(objective))
        values, scale = integers(named.values())
        named = dict(zip(named, values))
        columns = num_vars + len(rows)
        if any(not 0 <= j < columns for j in named):
            raise ValueError(f"the objective names a column outside the program's {columns}")
        if any(v and j >= num_vars and rows[j - num_vars].implied for j, v in named.items()):
            raise ValueError("the objective prices the slack of an implied row")
        cost = [0] * max(num_vars, 1 + max(named, default=-1))
        for j, v in named.items():
            cost[j] = v
        return cls(num_vars, tuple(cost), scale, rows)

    @cached_property
    def dense_rows(self) -> tuple[tuple[tuple[int, ...], int], ...] | None:
        """The dense forms (`LinearRow.dense`) of the rows a tableau holds,
        built once per program, or None when some row names a slack
        column. The held rows and x >= 0 imply every implied row."""
        n = self.num_vars
        if any(row.coeffs and row.coeffs[-1][0] >= n for row in self.rows):
            return None
        return tuple(row.dense for row in self.rows if not row.implied)


@dataclass(frozen=True)
class SimplexState:
    """Final tableau snapshot in dictionary form: one integer row per basic
    variable over the nonbasic columns `cols`, its right-hand side last, so
    rows / det is B^-1 [N | b]. The rows are the tableau's own lists,
    shared without a copy; pivots replace rows instead of writing into
    them. num_vars counts every column, structural and slack (row i adds
    column n + i over n structural variables), an implied row's included,
    whose slack is neither basic nor in `cols`; det is |det B| for the
    basis columns B of the integer standard form. `vertex` is the one
    reader of the state's point. `costs` are the tableau's carried reduced
    rows, the reduced rows of the integer costs `priced` (see
    Tableau.carry), so a re-solve from the state starts from them. An
    INFEASIBLE state has no basis, rows, columns or costs, and its num_vars
    counts the structural variables only."""

    status: Status
    num_vars: int
    basis: tuple[int, ...]
    rows: tuple[list[int], ...]
    det: int = 1
    cols: tuple[int, ...] = ()
    costs: tuple[list[int], ...] = ()
    priced: tuple[Sequence[int], ...] = ()

    def vertex(self, n: int) -> list[int]:
        """det times the first n coordinates of the state's point, as ints:
        each basic variable's right-hand side, 0 for a nonbasic one (an
        implied row's slack included). Every reader of the point reads it
        here, the Fraction view `structural_point` too."""
        x = [0] * n
        for var, row in zip(self.basis, self.rows):
            if var < n:
                x[var] = row[-1]
        return x

    def structural_point(self, n: int) -> tuple[Fraction, ...]:
        """The first n coordinates of the state's point (`vertex` over det)."""
        return tuple([Fraction(v, self.det) for v in self.vertex(n)])


class Tableau:
    """Mutable integer dictionary: rows / det is B^-1 [N | b], one row per
    basic variable (`basis`) over the nonbasic columns (`cols`), each row
    ending in its right-hand side. `ncols` counts the variables, structural
    and slack: row i adds column n + i over n structural variables, so the
    next appended row's slack is column ncols. `costs` holds the reduced rows
    of the integer costs `priced`, carried through every pivot (see
    `carry`). Internal to the solvers; snapshot with `state()` before
    handing results out. Costs passed in are integer (see
    AffineForm.scaled): over the leading columns for `carry`, one entry per
    variable for `reduced` and `value_of`."""

    __slots__ = ("ncols", "rows", "basis", "det", "cols", "costs", "priced")

    def __init__(self, ncols, rows, basis, det, cols):
        self.ncols = ncols
        self.rows = rows
        self.basis = basis
        self.det = det
        self.cols = cols
        self.costs: list[list[int]] = []
        self.priced: tuple[Sequence[int], ...] = ()

    @classmethod
    def of_state(cls, state: SimplexState) -> "Tableau":
        """The integer tableau behind an optimal state, with its carried
        rows, for reduced rows or further pivots; pivoting it leaves the
        state unchanged."""
        if state.status is not Status.OPTIMAL:
            raise NotOptimal(f"reduced rows need an optimal state, got {state.status}")
        tab = cls(state.num_vars, list(state.rows), list(state.basis), state.det, list(state.cols))
        tab.costs, tab.priced = list(state.costs), state.priced
        return tab

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
        self.basis[row_idx], cols[col] = cols[col], self.basis[row_idx]
        self.det = piv

    def carry(self, *costs: Sequence[int]) -> None:
        """Price these integer costs, each over the leading columns (the
        rest cost zero), from now on: `costs` becomes their reduced rows,
        each ending in -det times the cost's value, which every later pivot
        updates in place of a recomputation."""
        self.priced = costs
        self.costs = []
        for cost in costs:
            cost = [*cost, *[0] * (self.ncols - len(cost))]
            self.costs.append([*self.reduced(cost), -self.value_of(cost)])

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
            status, self.ncols, tuple(self.basis), tuple(self.rows), self.det, tuple(self.cols),
            tuple(self.costs), self.priced,
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


def _written(
    tab: Tableau, row: LinearRow, column: dict[int, int], basic: dict[int, int]
) -> list[int]:
    """`row` over tab's dictionary columns, right-hand side last, as the row
    of its slack (a >= row is negated). With a the row's integer data
    (row.coeffs and row.rhs, which are its scale s times the row), it is
    det*a - sum_i a[basis_i]*row_i, for the basic variables `basic` maps
    to their rows; `column` maps each nonbasic variable to its column.
    Then tab's rows, carried rows and det are multiplied by s, and the
    returned row is over the new det.
    """
    det = tab.det
    new = [0] * len(column)
    new.append(det * row.rhs)
    eliminate = []
    for j, coeff in row.coeffs:
        if j >= tab.ncols:
            raise ValueError(f"a row references variable x{j}, which does not exist yet")
        k = column.get(j)
        if k is None:
            i = basic.get(j)
            if i is None:
                raise InvariantViolated(
                    f"a row references x{j}, the slack of an implied row, which no tableau holds"
                )
            eliminate.append((coeff, tab.rows[i]))
        else:
            new[k] = det * coeff
    for factor, basic_row in eliminate:
        new = [x - factor * y for x, y in zip(new, basic_row)]
    scale = row.scale
    if scale != 1:
        tab.rows = [[scale * v for v in r] for r in tab.rows]
        tab.costs = [[scale * v for v in r] for r in tab.costs]
        tab.det *= scale
    if row.relation == GREATER_EQ:
        new = [-v for v in new]
    return new


def feasible_tableau(n: int, rows: Sequence[LinearRow]) -> Tableau | None:
    """A primal-feasible tableau over `rows` on n structural variables, or
    None when they are infeasible: `resolve_after` from the empty state
    over the structural columns for the zero cost, which every basis is
    optimal for."""
    empty = SimplexState(Status.OPTIMAL, n, (), (), 1, tuple(range(n)), ([0] * (n + 1),), ((),))
    return resolve_after(empty, rows)


def resolve_after(
    parent: SimplexState, rows: Sequence[LinearRow], price=_carried_cost
) -> Tableau | None:
    """Maximize a linear cost over the system `parent` was solved on plus
    `rows`, by dual simplex from the parent's basis: the optimal tableau,
    or None when the extended system is infeasible. The parent is left
    unchanged.

    The tableau starts from the parent's carried rows (`costs`), which ride
    through every pivot. `price(tab)` gives the cost's reduced row over the
    dictionary columns, then -det times its value, as a combination of
    them; by default it is the one carried row, the cost the parent was
    optimized for. The parent's basis must be optimal for it: `_dual_bland`
    prices the first row once and refuses a positive entry (NotOptimal).

    Each row is appended with its slack, the next variable from tab.ncols
    on, basic in it, even at a negative right-hand side, so the basis stays
    dual feasible. A row may reference the parent's variables and the
    slacks of earlier rows in `rows`.

    Callers, each on a parent's final state: `feasible_tableau` on the
    empty state, `milp.solve_milp` for every branch-and-bound child (one
    branch row), on the parent's objective row, and `fractional.solve_lfp`
    for every search node but the root (its branch row or round rows), on
    q*nu - p*mu from the parent's carried ratio rows, which goes on to the
    ratio phase on the returned tableau; `fractional.maximize` re-solves
    the search's companion maxima so from an ancestor's companion state.
    """
    tab = Tableau.of_state(parent)
    column = {var: k for k, var in enumerate(tab.cols)}
    basic = {var: i for i, var in enumerate(tab.basis)}
    for row in rows:
        if not row.implied:
            new = _written(tab, row, column, basic)
            basic[tab.ncols] = len(tab.rows)
            tab.rows.append(new)
            tab.basis.append(tab.ncols)
        tab.ncols += 1
    return tab if _dual_bland(tab, price) else None


def _dual_bland(tab: Tableau, price) -> bool:
    """Dual simplex from a dual-feasible tableau whose cost row, `price(tab)`
    over tab's carried rows, ends in -det times the objective value: True
    at a primal-feasible basis, which is then optimal, and False when the
    rows are infeasible. A first cost row with a positive reduced cost
    means the basis is not dual feasible (NotOptimal); each later row is
    priced once per pivot.

    Bland's rule for the dual (Bland 1977): of the rows with a negative
    right-hand side, the one whose basic variable is smallest leaves; of its
    negative entries a, the one with the smallest |red| / |a| enters, ties
    to the smallest variable, which keeps every reduced cost <= 0. det
    cancels from the ratio, and ratios compare by cross-multiplying. A row
    with no negative entry proves the system infeasible. A value that rises
    across a pivot is a defect (InvariantViolated).
    """
    red = price(tab)
    if any(v > 0 for v in red[:-1]):
        raise NotOptimal("the basis is not optimal for the cost")
    while True:
        rows, cols = tab.rows, tab.cols
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
        red = price(tab)
        if red[-1] * det < value * tab.det:
            raise InvariantViolated("the objective value rose across a dual pivot")


def optimize(tab: Tableau, cost: Sequence[int]) -> SimplexState:
    """Phase two: maximize cost . x, an integer cost over the leading
    columns (the rest cost zero; see LinearProgram.cost), by Bland
    pivots from the primal-feasible `tab`, which it pivots in place. The
    final state is OPTIMAL or UNBOUNDED."""
    tab.carry(cost)
    return tab.state(_bland(tab, _carried_cost))


def solve_lp(program: LinearProgram) -> SimplexState:
    """Exact simplex: dual pivots to a feasible tableau, then phase two.
    Deterministic: equal inputs give equal final bases."""
    tab = feasible_tableau(program.num_vars, program.rows)
    if tab is None:
        return SimplexState(Status.INFEASIBLE, program.num_vars, (), ())
    return optimize(tab, program.cost)


def presolve(n: int, rows: Sequence[LinearRow]) -> tuple[LinearRow, ...]:
    """The rows over n structural variables, each marked `implied` whose
    maximum over the region of all the rows (with x >= 0) is strictly
    below its right-hand side: its slack is positive at every point of the
    region, so dropping every marked row at once leaves the region as it
    is (Brearley, Mitra & Williams 1975). Over an empty region every row
    is vacuously slack, so nothing is marked there; a row whose maximum
    equals its right-hand side (a duplicate of a tight row, say) is kept.

    The rows are made feasible once (`feasible_tableau`). Exact
    certificates settle most rows without an LP: a row tight at a vertex
    read, or at a vertex next to it, is kept, and a basic slack with a
    positive value and no positive entry is marked (`_read_vertex`), as is
    a row that one other row times some lambda >= 0 implies strictly
    (`_dominated`). Each row still undecided has its slack minimized from
    a copy of the feasible tableau, and the optimum is read the same way:
    the slack is 0 there, or it is basic, positive and, by optimality, has
    no positive entry.
    """
    rows = tuple(rows)
    tab = feasible_tableau(n, rows)
    if tab is None:
        return rows
    implied: list[bool | None] = [None] * len(rows)
    _read_vertex(tab, n, implied)
    start = tab.state(Status.OPTIMAL)
    dense = [row.dense for row in rows]
    for i, row in enumerate(dense):
        if implied[i] is None and any(_dominated(row, other) for other in dense):
            implied[i] = True
    for i, mark in enumerate(implied):
        if mark is None:
            # The least slack's optimum settles row i (see _read_vertex).
            tab = Tableau.of_state(start)
            optimize(tab, [0] * (n + i) + [-1])
            _read_vertex(tab, n, implied)
    return tuple(
        LinearRow(row.coeffs, row.relation, row.rhs, row.scale, True) if mark else row
        for row, mark in zip(rows, implied)
    )


def _read_vertex(tab: Tableau, n: int, implied: list[bool | None]) -> None:
    """Settle the undecided rows a primal-feasible tableau decides. Every
    variable is nonnegative over the region, so a basic slack with a
    positive value and no positive entry stays positive there (Telgen
    1983), and its row is marked. A row is kept when its slack is 0 at the
    vertex, or when it leaves in the ratio test of some column: the edge
    along that column reaches the row at a point of the region."""
    for var in tab.cols:
        if var >= n:
            implied[var - n] = False
    for var, row in zip(tab.basis, tab.rows):
        i = var - n
        if i >= 0 and implied[i] is None:
            if row[-1] == 0:
                implied[i] = False
            elif max(row[:-1], default=0) <= 0:
                implied[i] = True
    for k in range(len(tab.cols)):
        leave = tab.leaving_row(k)
        if leave >= 0 and tab.basis[leave] >= n:
            implied[tab.basis[leave] - n] = False


def _dominated(row: tuple[Sequence[int], int], other: tuple[Sequence[int], int]) -> bool:
    """Whether lambda times the dense row `other` (c . x <= g), for some
    lambda >= 0, implies the dense row a . x <= h with strict slack over
    x >= 0: a <= lambda c entrywise and lambda g < h. lambda = p / q is
    the least value the first condition allows, which is the best one when
    g >= 0 and a sound one otherwise. A row against itself gets lambda = 1,
    which never holds strictly, or lambda = 0, the certificate that x >= 0
    alone implies it."""
    (a, h), (c, g) = row, other
    p, q = 0, 1
    for ak, ck in zip_longest(a, c, fillvalue=0):
        if ck > 0 and ak * q > p * ck:
            p, q = ak, ck
    return p * g < q * h and all(
        ak * q <= p * ck for ak, ck in zip_longest(a, c, fillvalue=0)
    )


def reduced_row(state: SimplexState, form: AffineForm) -> tuple[dict[int, Fraction], Fraction]:
    """Reduced coefficients of an affine form at an optimal state.

    Returns ({nonbasic index: reduced coefficient}, value of the form at
    the state's point). The form is over structural variables; added
    variables carry zero cost.
    """
    tab = Tableau.of_state(state)
    coeffs, constant, scale = form.scaled
    cost = [*coeffs, *[0] * (tab.ncols - len(coeffs))]
    red = tab.reduced(cost)
    denominator = scale * tab.det
    value = Fraction(tab.value_of(cost, constant), denominator)
    return {j: Fraction(r, denominator) for j, r in sorted(zip(tab.cols, red))}, value
