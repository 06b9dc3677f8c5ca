"""Branch-and-cut search for the full solution set.

Each node adds a branch row or one or two round rows to its parent's row
system, over the structural variables plus every slack introduced so far.
The node's ratio program is solved exactly, once: the root's from scratch,
every other node's from its parent's final tableau by a dual re-solve and
the ratio phase (`fractional.solve_lfp` with a parent), the path a
membership MILP's children take too. A fractional optimum branches by the
rule the membership MILPs branch by (`milp.branch_rows`: Dakin's
dichotomy on the smallest fractional structural variable, read in
integers off the node's state), an integer optimum x* is tested for the
solution set and then removed by rounds over the nonbasic coordinates.
The test first looks for an integer point the search has already met (an
earlier optimum or a membership witness) that strictly dominates x* in
criteria or in utility space; such a point is a feasible dominating
witness, so x* is rejected without a MILP. Only the optima no met point
dominates go to the membership MILPs: the criteria MILP, then the utility
MILP only when the criteria MILP finds no dominating point.
The rounds are:

    H  = {j nonbasic : some criterion gradient lambda_j > 0}
         union {j : every lambda_j == 0}
    H' = {j nonbasic : other-utility gradient > 0}
         union {j : other-utility gradient == 0 and solved-utility gradient == 0}

Both "sum of the named coordinates >= 1" rounds go to a single successor
node. Because reduced rows are exact identities for affine forms, any
integer point of the node with all H coordinates zero is strictly dominated
in criteria space (and likewise for H' in utility space), so discarding a
node when either set is empty loses no solution. Every solution survives in
the successor: solutions distinct from x* keep a positive coordinate in
both sets, and coordinates are integral, so each round stays satisfied.
x* itself, whose nonbasic coordinates are all zero, violates the H round,
and branch children split their parent's region, so no integer optimum
recurs and each is tested once.
The gradients' signs are read in integers off one tableau of the node's
state; the solved utility's are its carried rows.

After the test of an integer optimum, and before any branch or round, a
feasible node is fathomed at its utility ideal point (Ehrgott & Gandibleux
2007; Przybylski & Gandibleux 2017). The corner pairs the node's value with
the companion utility's maximum over the node. When a met integer point's
utility image is >= the corner and differs from it, the node goes. This is
exact: every point of the node lies at or under the corner in both
utilities, so the met point strictly dominates each of them in utility
space, and none is in the solution set. An image equal to the corner keeps
the node, so ties survive. Only a met image at or above the node vertex's
image can beat the corner, so with none there the maximum is not needed.
Otherwise the nearest ancestor's companion maximum (`SearchNode.companion`)
bounds the node's, whose region lies in the ancestor's, and a met image
strictly dominating the corner built on it fathoms the node with nothing
solved. The root's maximum is solved before the walk, so every node has
such an ancestor, and the root has its own. A maximum with no rows
appended since is the node's own. Else the exact maximum is read
(`fractional.maximize`) by the dual re-solve every child takes, from the
ancestor's companion-optimal state over those rows; it then passes on
with none pending. Either way the node is decided as at its exact
maximum, and because the optimum is tested first, every integer optimum
is decided and counted as before.
"""
from __future__ import annotations

import logging
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InvariantViolated, NodeLimitExceeded, NonIntegerPoint, NotOptimal
from .efficiency import is_in_solution_set
from .fractional import LfpResult, maximize, ratio_gradient, solve_lfp
from .milp import branch_rows
from .model import (
    FractionalObjective,
    ObjectiveVector,
    Point,
    ProblemInstance,
    _ratio_at_ints,
    at_least,
    criteria_image,
    dominates,
    utility_image,
)
from .simplex import GREATER_EQ, LinearRow, SimplexState, Status, Tableau

log = logging.getLogger(__name__)

BRANCH = "branch"
CUT = "cut"
FATHOM_INFEASIBLE = "fathom-infeasible"
FATHOM_EMPTY_H = "fathom-empty-H"
FATHOM_EMPTY_HPRIME = "fathom-empty-Hprime"
FATHOM_IDEAL = "fathom-ideal"
ARCHIVE = "archive"
MILP = "milp"

# (value, state, pending rows): see SearchNode.companion.
AncestorMaximum = tuple[Fraction, SimplexState, tuple[LinearRow, ...]]


@dataclass(frozen=True)
class SearchNode:
    """`rows` are the rows the node adds to its parent's system, solved from
    the parent's final state; the root's are the instance's rows.
    `companion` is the companion utility's maximum over the nearest ancestor
    that read it (the root's is solved before the walk), with the final
    state attaining it and the rows appended since (this node's included),
    or None at an empty root."""

    id: int
    parent: int | None
    rows: tuple[LinearRow, ...]
    parent_state: SimplexState | None = None
    companion: AncestorMaximum | None = None


@dataclass(frozen=True)
class SolutionRecord:
    point: Point
    criteria_values: ObjectiveVector
    utility_values: ObjectiveVector


@dataclass(frozen=True)
class TraceRecord:
    node_id: int
    parent: int | None
    action: str
    point: tuple[Fraction, ...] | None
    value: Fraction | None
    h: frozenset[int] | None
    hprime: frozenset[int] | None


@dataclass
class SearchReport:
    """The trace holds one record per processed node. `candidates` counts
    the distinct integer node optima by how they were decided: rejected by
    an archived point (ARCHIVE) or by the membership MILPs (MILP)."""

    solutions: list[SolutionRecord]
    trace: list[TraceRecord]
    candidates: dict[str, int]

    @property
    def nodes_processed(self) -> int:
        return len(self.trace)

    @property
    def fathoms(self) -> dict[str, int]:
        """Fathomed nodes by reason, every reason present."""
        counts = Counter(rec.action for rec in self.trace)
        reasons = (FATHOM_INFEASIBLE, FATHOM_EMPTY_H, FATHOM_EMPTY_HPRIME, FATHOM_IDEAL)
        return {r: counts[r] for r in reasons}

    def solution_points(self) -> set[Point]:
        return {rec.point for rec in self.solutions}


def _record(inst: ProblemInstance, point: Point) -> SolutionRecord:
    return SolutionRecord(point, criteria_image(inst, point), utility_image(inst, point))


def ideal_point_beaten(
    archive: Sequence[SolutionRecord],
    result: LfpResult,
    companion: FractionalObjective,
    solved: int,
    known: AncestorMaximum,
) -> tuple[bool, AncestorMaximum]:
    """Whether an archived point strictly dominates the node's utility ideal
    point (the corner of its value and the companion utility's maximum over
    it), and the companion maximum to pass on: `known` (an ancestor's, see
    SearchNode.companion) or, once read, the node's own with no rows
    pending. Only archived images at or above the node vertex's image can
    dominate; with none, nothing is solved. A rival beating the corner of
    `known`'s maximum, which bounds the node's, beats the true corner too.
    With no rows pending, `known`'s maximum is the node's own and passes
    on as it is. Otherwise the maximum is read by one re-solve from
    `known`'s state over its pending rows."""

    def corner(other):
        return (result.value, other) if solved == 0 else (other, result.value)

    def beaten(maximum):
        return any(dominates(u, corner(maximum)) for u in rivals)

    n, state = len(companion.numerator.coeffs), result.state
    vertex = corner(_ratio_at_ints(companion, state.vertex(n), state.det))
    rivals = [rec.utility_values for rec in archive if at_least(rec.utility_values, vertex)]
    if not rivals:
        return False, known
    fathom = beaten(known[0])
    if fathom or not known[2]:
        return fathom, known
    read = maximize(n, known[2], companion, known[1])
    if read is None:
        raise InvariantViolated("the appended rows empty the region of a maximum")
    return beaten(read[0]), (*read, ())


def build_cut_sets(
    state: SimplexState, inst: ProblemInstance, solved: int = 0
) -> tuple[frozenset[int], frozenset[int]]:
    """Rounds at an integer optimum. `solved` names the utility the node
    maximized; the companion utility drives H'."""
    if state.status is not Status.OPTIMAL:
        raise NotOptimal("cut sets need an optimal state")
    if branch_rows(state, inst.variable_count) is not None:
        point = state.structural_point(inst.variable_count)
        raise NonIntegerPoint(f"cut sets need an integer optimum, got {point}")

    # Each gradient's entries are gamma's times a positive integer, so their
    # signs are gamma's. The solved utility's are the state's carried rows.
    tab = Tableau.of_state(state)
    gamma_solved = ratio_gradient(tab, inst.utilities[solved])
    lambdas = [ratio_gradient(tab, obj) for obj in inst.criteria]
    gamma_other = ratio_gradient(tab, inst.utilities[1 - solved])
    h = frozenset(
        j
        for k, j in enumerate(state.cols)
        if any(lam[k] > 0 for lam in lambdas) or all(lam[k] == 0 for lam in lambdas)
    )
    hp = frozenset(
        j
        for k, j in enumerate(state.cols)
        if gamma_other[k] > 0 or (gamma_other[k] == 0 and gamma_solved[k] == 0)
    )
    return h, hp


def run(
    inst: ProblemInstance,
    strategy: str = "dfs",
    objective: int = 0,
    node_limit: int | None = None,
) -> SearchReport:
    """Enumerate every integer point simultaneously efficient for the
    ranking criteria and for the utility pair.

    strategy: "dfs" (floor child first) or "bfs". objective: which utility
    (0 or 1) each node maximizes. Neither choice changes the returned set,
    only the walk order. The instance's assumptions are proved first,
    once per instance (`ProblemInstance.certificate`).
    """
    if strategy not in ("dfs", "bfs"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if objective not in (0, 1):
        raise ValueError("objective must be 0 or 1")
    inst.certificate  # AssumptionViolated unless the instance meets them

    n = inst.variable_count
    utility, companion = inst.utilities[objective], inst.utilities[1 - objective]

    root_maximum = maximize(n, inst.rows, companion)
    root = SearchNode(0, None, inst.rows, companion=root_maximum and (*root_maximum, ()))
    open_nodes: deque[SearchNode] = deque([root])
    next_id = 1
    report = SearchReport([], [], {ARCHIVE: 0, MILP: 0})
    # Every integer point met so far with its criteria and utility images.
    archive: list[SolutionRecord] = []

    while open_nodes:
        node = open_nodes.pop() if strategy == "dfs" else open_nodes.popleft()
        if node_limit is not None and report.nodes_processed >= node_limit:
            raise NodeLimitExceeded(f"node limit {node_limit} exceeded")

        result = solve_lfp(n, node.rows, utility, node.parent_state)

        def record(
            action: str, h: frozenset[int] | None = None, hp: frozenset[int] | None = None
        ) -> None:
            report.trace.append(
                TraceRecord(node.id, node.parent, action, result.point, result.value, h, hp)
            )

        if result.status is Status.INFEASIBLE:
            record(FATHOM_INFEASIBLE)
            continue

        branch = branch_rows(result.state, n)
        if branch is None:
            det = result.state.det
            integer_point = tuple([v // det for v in result.state.vertex(n)])
            candidate = _record(inst, integer_point)
            dominator = next(
                (
                    rec
                    for rec in archive
                    if dominates(rec.criteria_values, candidate.criteria_values)
                    or dominates(rec.utility_values, candidate.utility_values)
                ),
                None,
            )
            archive.append(candidate)
            if dominator is not None:
                report.candidates[ARCHIVE] += 1
                log.debug(
                    "node %d: %s discarded, dominated by archived %s",
                    node.id,
                    integer_point,
                    dominator.point,
                )
            else:
                report.candidates[MILP] += 1
                verdict = is_in_solution_set(inst, integer_point, decide=True)
                if verdict.in_solution_set:
                    report.solutions.append(candidate)
                    log.debug("node %d: %s joins the solution set", node.id, integer_point)
                elif verdict.witness is not None:
                    archive.append(_record(inst, verdict.witness))
                    log.debug(
                        "node %d: %s discarded, dominated by %s",
                        node.id,
                        integer_point,
                        verdict.witness,
                    )

        beaten, known = ideal_point_beaten(archive, result, companion, objective, node.companion)
        if beaten:
            record(FATHOM_IDEAL)
            continue

        def child(node_id: int, rows: tuple[LinearRow, ...]) -> SearchNode:
            inherited = (known[0], known[1], known[2] + rows)
            return SearchNode(node_id, node.id, rows, result.state, inherited)

        if branch:
            floor_row, ceil_row = branch
            floor_child = child(next_id, (floor_row,))
            ceil_child = child(next_id + 1, (ceil_row,))
            next_id += 2
            record(BRANCH)
            if strategy == "dfs":
                open_nodes.append(ceil_child)
                open_nodes.append(floor_child)
            else:
                open_nodes.append(floor_child)
                open_nodes.append(ceil_child)
            continue

        h, hp = build_cut_sets(result.state, inst, solved=objective)
        if not h:
            record(FATHOM_EMPTY_H, h, hp)
            continue
        if not hp:
            record(FATHOM_EMPTY_HPRIME, h, hp)
            continue

        cut_rows = [LinearRow(tuple((j, 1) for j in sorted(h)), GREATER_EQ, 1)]
        if hp != h:
            cut_rows.append(LinearRow(tuple((j, 1) for j in sorted(hp)), GREATER_EQ, 1))
        successor = child(next_id, tuple(cut_rows))
        next_id += 1
        record(CUT, h, hp)
        open_nodes.append(successor)

    return report
