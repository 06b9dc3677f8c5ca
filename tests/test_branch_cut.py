import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import effset.branch_cut as branch_cut
from effset import simplex
from effset.branch_cut import (
    ARCHIVE,
    BRANCH,
    CUT,
    FATHOM_EMPTY_H,
    FATHOM_EMPTY_HPRIME,
    FATHOM_IDEAL,
    FATHOM_INFEASIBLE,
    MILP,
    build_cut_sets,
    run,
)
from effset.efficiency import is_in_solution_set
from effset.errors import (
    AssumptionViolated,
    InvariantViolated,
    NodeLimitExceeded,
    NonIntegerPoint,
)
from effset.fractional import _expand_rows, maximize, solve_lfp
from effset.generator import GeneratorConfig, generate
from effset.instances import dumps, loads
from effset.milp import branch_rows
from effset.model import (
    constraint_rows,
    criteria_image,
    dominates,
    evaluate,
    instance,
    ratio,
    utility_image,
)
from effset.oracle import efficient_sets, enumerate_feasible
from effset.simplex import GREATER_EQ, LESS_EQ, LinearRow
from effset.validate import validate_instance

from conftest import (
    DEMO_SOLUTION_SET,
    assert_dakin_rows,
    assert_vertex_read,
    build_demo,
    count_calls,
)
from test_model import rationals


@pytest.fixture(scope="module")
def demo_report():
    return run(build_demo())


def by_node(report):
    return {rec.node_id: rec for rec in report.trace}


def edges_and_rows(report):
    """The search tree rebuilt from the trace: ([(parent, child, label)],
    {node id: rows the search added to the base system}). A branch node's
    lower-id child is its floor child; a cut node's successor carries the
    H round, then the H' round when it differs."""
    children = {}
    for rec in report.trace:
        children.setdefault(rec.parent, []).append(rec.node_id)
    edges, rows = [], {0: ()}
    for rec in sorted(report.trace, key=lambda r: r.node_id):
        node, kids = rec.node_id, sorted(children.get(rec.node_id, []))
        if rec.action == BRANCH:
            r = next(j for j, v in enumerate(rec.point) if v.denominator != 1)
            lo = math.floor(rec.point[r])
            floor_id, ceil_id = kids
            edges += [(node, floor_id, f"x{r} <= {lo}"), (node, ceil_id, f"x{r} >= {lo + 1}")]
            rows[floor_id] = rows[node] + (LinearRow.of({r: 1}, LESS_EQ, lo),)
            rows[ceil_id] = rows[node] + (LinearRow.of({r: 1}, GREATER_EQ, lo + 1),)
        elif rec.action == CUT:
            (succ,) = kids
            sets = [rec.h] if rec.hprime == rec.h else [rec.h, rec.hprime]
            label = "; ".join(" + ".join(f"x{j}" for j in sorted(s)) + " >= 1" for s in sets)
            edges.append((node, succ, label))
            rows[succ] = rows[node] + tuple(
                LinearRow.of({j: 1 for j in s}, GREATER_EQ, 1) for s in sets
            )
    return edges, rows


class TestDemoSearch:
    def test_solution_set(self, demo_report):
        assert demo_report.solution_points() == DEMO_SOLUTION_SET

    def test_node_count_and_fathoms(self, demo_report):
        assert demo_report.nodes_processed == 10
        assert demo_report.fathoms == {
            FATHOM_INFEASIBLE: 3,
            FATHOM_EMPTY_H: 0,
            FATHOM_EMPTY_HPRIME: 0,
            FATHOM_IDEAL: 0,
        }

    def test_processing_order(self, demo_report):
        assert [rec.node_id for rec in demo_report.trace] == [0, 1, 3, 4, 6, 7, 8, 9, 5, 2]

    def test_actions(self, demo_report):
        actions = {rec.node_id: rec.action for rec in demo_report.trace}
        assert actions == {
            0: BRANCH,
            1: CUT,
            2: FATHOM_INFEASIBLE,
            3: BRANCH,
            4: CUT,
            5: FATHOM_INFEASIBLE,
            6: CUT,
            7: CUT,
            8: CUT,
            9: FATHOM_INFEASIBLE,
        }

    def test_root_relaxation(self, demo_report):
        root = by_node(demo_report)[0]
        assert root.point == (Fraction(32, 7), Fraction(8, 7))
        assert root.value == Fraction(-45, 79)

    def test_branch_vertex_after_first_round(self, demo_report):
        assert by_node(demo_report)[3].point == (3, Fraction(3, 4))

    def test_integer_optima_along_the_cut_chain(self, demo_report):
        records = by_node(demo_report)
        expected = {1: (4, 1), 4: (3, 0), 6: (2, 0), 7: (1, 0), 8: (0, 0)}
        for node_id, point in expected.items():
            assert records[node_id].point == point, node_id

    def test_round_sets(self, demo_report):
        # Nodes 6-8 end at degenerate vertices, so their rounds follow from
        # each node's final basis. x2..x11 are the slacks of -x0 + 4x1 <= 0,
        # 2x0 - x1 <= 8, x0 <= 4, x4 >= 1, x1 <= 0, node 6's rows x5 + x6 >= 1
        # and x5 >= 1, node 7's x6 + x7 >= 1 and x7 >= 1, and node 8's
        # x1 + x9 >= 1. Over each final nonbasis:
        #   node 6 at (2, 0), {x6, x7}: x0 = 2 + x6 - x7, x1 = -x6;
        #   node 7 at (1, 0), {x1, x9}: x0 = 1 - 2x1 - x9;
        #   node 8 at (0, 0), {x1, x11}: x0 = -x1 - x11.
        # The three criterion gradients D(x*) dN - N(x*) dD over those
        # columns are then (4, -2), (1, 1), (-2, 1) at node 6, (-7, -2),
        # (-1, 1), (3, 1) at node 7 and (-6, -2), (-3, 1), (2, 1) at node 8;
        # the companion utility's are (-35, 10), (35, 10) and (15, 10). H
        # takes every column with a positive criterion entry, H' every column
        # with a positive companion entry.
        records = by_node(demo_report)
        expected = {
            1: ({4}, {4}),
            4: ({5, 6}, {5}),
            6: ({6, 7}, {7}),
            7: ({1, 9}, {1, 9}),
            8: ({1, 11}, {1, 11}),
        }
        for node_id, (h, hp) in expected.items():
            rec = records[node_id]
            assert rec.h == frozenset(h), node_id
            assert rec.hprime == frozenset(hp), node_id

    def test_edges(self, demo_report):
        labels = {(a, b): label for a, b, label in edges_and_rows(demo_report)[0]}
        assert labels[(0, 1)] == "x0 <= 4"
        assert labels[(0, 2)] == "x0 >= 5"
        assert labels[(3, 4)] == "x1 <= 0"
        assert labels[(3, 5)] == "x1 >= 1"
        assert labels[(1, 3)] == "x4 >= 1"
        assert labels[(4, 6)] == "x5 + x6 >= 1; x5 >= 1"
        assert set(labels) == {
            (0, 1), (0, 2), (1, 3), (3, 4), (3, 5), (4, 6), (6, 7), (7, 8), (8, 9),
        }

    def test_solution_records_carry_images(self, demo_report, demo):
        for rec in demo_report.solutions:
            assert rec.criteria_values == criteria_image(demo, rec.point)
            assert rec.utility_values == utility_image(demo, rec.point)

    def test_values_never_increase_down_an_edge(self, demo_report):
        records = by_node(demo_report)
        for parent, child, _ in edges_and_rows(demo_report)[0]:
            child_rec = records[child]
            if child_rec.value is not None:
                assert child_rec.value <= records[parent].value


def _satisfies(num_vars, rows, point):
    for dense, relation, rhs in _expand_rows(num_vars, rows):
        lhs = sum(c * v for c, v in zip(dense, point))
        if not (lhs <= rhs if relation == LESS_EQ else lhs >= rhs):
            return False
    return True


class TestRoundProperties:
    """Structural guarantees of the rounds, checked on the recorded node
    systems: the processed optimum never survives into its successor, and
    every solution point in a node's subdomain does survive."""

    def test_cut_removes_the_optimum_and_keeps_solutions(self, demo_report, demo):
        records = by_node(demo_report)
        edges, added_rows = edges_and_rows(demo_report)
        succ_of = {}
        for parent, child, label in edges:
            if "<=" not in label and records[parent].action == CUT:
                succ_of[parent] = child
        assert set(succ_of) == {1, 4, 6, 7, 8}
        base = constraint_rows(demo.a_matrix, demo.b_vector)
        for node_id, succ_id in succ_of.items():
            node_rows = base + added_rows[node_id]
            succ_rows = base + added_rows[succ_id]
            optimum = records[node_id].point
            assert _satisfies(2, node_rows, optimum)
            assert not _satisfies(2, succ_rows, optimum)
            for s in DEMO_SOLUTION_SET:
                if s != optimum and _satisfies(2, node_rows, s):
                    assert _satisfies(2, succ_rows, s), (node_id, s)

    def test_chain_optima_are_distinct(self, demo_report):
        records = by_node(demo_report)
        parents = {rec.node_id: rec.parent for rec in demo_report.trace}
        for rec in demo_report.trace:
            if rec.action != CUT:
                continue
            seen = {rec.point}
            cursor = parents[rec.node_id]
            while cursor is not None:
                ancestor = records[cursor]
                if ancestor.action == CUT:
                    assert ancestor.point not in seen
                    seen.add(ancestor.point)
                cursor = parents[cursor]


class TestInvariance:
    @pytest.mark.parametrize("strategy", ["dfs", "bfs"])
    @pytest.mark.parametrize("objective", [0, 1])
    def test_demo_walk_order_choices(self, demo, strategy, objective):
        report = run(demo, strategy=strategy, objective=objective)
        assert report.solution_points() == DEMO_SOLUTION_SET

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exhaustive_enumeration(self, seed):
        cfg = GeneratorConfig(
            num_vars=2 + seed % 2,
            num_constraints=2 + seed % 3,
            num_criteria=2 + seed % 2,
            seed=seed,
            b_range=(4, 12),
            a_range=(2, 7),
        )
        inst = generate(cfg)
        expected = set(efficient_sets(inst)[2])
        for strategy in ("dfs", "bfs"):
            for objective in (0, 1):
                report = run(inst, strategy=strategy, objective=objective)
                assert report.solution_points() == expected, (seed, strategy, objective)


class TestArchive:
    """Candidates an integer point met earlier in the search strictly
    dominates are rejected without a membership MILP."""

    def test_rejections_are_exact_and_routing_is_counted(self, monkeypatch):
        tested = []

        def counting(inst, point, **options):
            tested.append(point)
            return is_in_solution_set(inst, point, **options)

        monkeypatch.setattr(branch_cut, "is_in_solution_set", counting)
        rejected_total = 0
        for seed in range(10):
            inst = generate(
                GeneratorConfig(num_vars=5, num_constraints=10, num_criteria=3, seed=seed)
            )
            tested.clear()
            report = run(inst)
            optima = {
                tuple(int(v) for v in rec.point)
                for rec in report.trace
                if rec.point is not None and all(v.denominator == 1 for v in rec.point)
            }
            assert len(tested) == report.candidates[MILP], seed
            assert report.candidates[ARCHIVE] + report.candidates[MILP] == len(optima), seed
            rejected = optima - set(tested)
            assert len(rejected) == report.candidates[ARCHIVE], seed
            for point in rejected:
                assert is_in_solution_set(inst, point).in_solution_set is False, (seed, point)
            rejected_total += len(rejected)
        assert rejected_total > 0

    @pytest.mark.parametrize("strategy", ["dfs", "bfs"])
    @pytest.mark.parametrize("objective", [0, 1])
    def test_points_with_equal_images_are_all_kept(self, strategy, objective):
        # Every objective depends on x0 + x1 only, so (1, 0) and (0, 1)
        # have the same criteria and utility images and neither dominates
        # the other; both are in the solution set.
        inst = instance(
            [[1, 1], [1, 0], [0, 1]],
            [1, 1, 1],
            [ratio([1, 1], 0, [0, 0], 1), ratio([1, 1], 0, [1, 1], 1)],
            [ratio([1, 1], 1, [1, 1], 2), ratio([-1, -1], 4, [0, 0], 1)],
        )
        assert set(efficient_sets(inst)[2]) == {(1, 0), (0, 1)}
        report = run(inst, strategy=strategy, objective=objective)
        assert report.solution_points() == {(1, 0), (0, 1)}


class TestIdealFathoming:
    """A node is fathomed when an archived point strictly dominates the
    corner (node value, companion maximum) in utility space."""

    @pytest.mark.parametrize("strategy", ["dfs", "bfs"])
    @pytest.mark.parametrize("objective", [0, 1])
    def test_every_point_of_a_fathomed_node_is_dominated(self, strategy, objective):
        fathomed = covered = 0
        for seed in range(10):
            inst = generate(
                GeneratorConfig(num_vars=5, num_constraints=10, num_criteria=3, seed=seed)
            )
            report = run(inst, strategy=strategy, objective=objective)
            base = constraint_rows(inst.a_matrix, inst.b_vector)
            _, added_rows = edges_and_rows(report)
            images = {p: utility_image(inst, p) for p in enumerate_feasible(inst)}
            for rec in report.trace:
                if rec.action != FATHOM_IDEAL:
                    continue
                fathomed += 1
                rows = base + added_rows[rec.node_id]
                for point, image in images.items():
                    if _satisfies(5, rows, point):
                        covered += 1
                        assert any(dominates(u, image) for u in images.values()), (
                            seed,
                            rec.node_id,
                            point,
                        )
        assert fathomed > 0 and covered > 0

    @pytest.mark.parametrize("strategy", ["dfs", "bfs"])
    @pytest.mark.parametrize("objective", [0, 1])
    def test_a_reused_companion_maximum_is_the_nodes_own(self, monkeypatch, strategy, objective):
        """A node with an archived rival at or above its vertex's image is
        first tested on its nearest ancestor's companion maximum as a bound;
        a node fathomed that way, with nothing solved, is fathomed at its own
        maximum too. Otherwise the ancestor's maximum is kept only with no
        rows appended since (the root's, solved before the walk), where it
        is the node's own; with rows pending, the node reads its maximum by
        exactly one dual re-solve of the ancestor's companion state over
        them. Either equals a solve from scratch over the node's rows; a
        read one is attained at its state's vertex and passes on with no
        rows pending. The root's is the one companion maximum solved from
        scratch in a search; every other read re-solves an ancestor's
        state."""
        read = bounded = 0
        solve, beaten, maximize = (
            branch_cut.solve_lfp,
            branch_cut.ideal_point_beaten,
            branch_cut.maximize,
        )
        node_rows = {}  # id of a node's final state: (state, the node's whole row system)
        calls = Counter()

        def recorded(n, rows, utility, parent=None):
            result = solve(n, rows, utility, parent)
            if result is not None:
                above = () if parent is None else node_rows[id(parent)][1]
                node_rows[id(result.state)] = (result.state, above + tuple(rows))
            return result

        def counted(n, rows, objective, parent=None):
            calls["from parent" if parent is not None else "from scratch"] += 1
            return maximize(n, rows, objective, parent)

        def checked(archive, result, companion, solved, known):
            nonlocal read, bounded

            def corner(other):
                return (result.value, other) if solved == 0 else (other, result.value)

            vertex = corner(evaluate(companion, result.point))
            rivals = [
                r.utility_values
                for r in archive
                if all(a >= b for a, b in zip(r.utility_values, vertex))
            ]
            before = calls["from parent"]
            fathom, after = beaten(archive, result, companion, solved, known)
            assert calls["from parent"] - before == (after is not known)
            if not rivals:
                return fathom, after
            whole = node_rows[id(result.state)][1]
            exact = solve_lfp(5, whole, companion).value
            if after is not known:
                read += 1
                value, state, pending = after
                assert value == exact and pending == () and known[2]
                assert evaluate(companion, state.structural_point(len(result.point))) == value
                assert fathom == any(dominates(u, corner(exact)) for u in rivals)
            elif fathom:
                bounded += 1
                assert known[0] >= exact
                assert any(dominates(u, corner(exact)) for u in rivals)
            else:
                assert known[2] == () and known[0] == exact
            return fathom, after

        monkeypatch.setattr(branch_cut, "solve_lfp", recorded)
        monkeypatch.setattr(branch_cut, "maximize", counted)
        monkeypatch.setattr(branch_cut, "ideal_point_beaten", checked)
        for seed in range(10):
            inst = generate(
                GeneratorConfig(num_vars=5, num_constraints=10, num_criteria=3, seed=seed)
            )
            calls.clear()
            run(inst, strategy=strategy, objective=objective)
            assert calls["from scratch"] == 1, seed
        assert read > 0 and bounded > 0


def _rational_instances():
    """Two variables under a row of coefficients >= 1/2 (a bounded box) and
    a free row, both with rational data and right-hand sides >= 0 (the
    origin is feasible); denominators have coefficients >= 0 and a
    constant >= 1, so they stay positive."""
    small = rationals.map(lambda v: v / 10)
    pair = st.lists(small, min_size=2, max_size=2)
    objective = st.builds(
        lambda p, p0, q, q0: ratio(p, p0, [abs(c) for c in q], 1 + abs(q0)),
        pair, small, pair, small,
    )
    return st.builds(
        lambda bound, free, b, c, u: instance(
            [[abs(v) + Fraction(1, 2) for v in bound], free], [2 + abs(b[0]), abs(b[1])], c, u
        ),
        pair, pair, pair,
        st.lists(objective, min_size=2, max_size=2),
        st.lists(objective, min_size=2, max_size=2),
    )


class TestRationalConstraintData:
    @settings(max_examples=40, deadline=None)
    @given(_rational_instances())
    def test_search_membership_and_certificate(self, inst):
        x_e, x_ep, both = efficient_sets(inst)
        assert run(inst).solution_points() == set(both)
        for point in enumerate_feasible(inst):
            verdict = is_in_solution_set(inst, point)
            assert verdict.moilfp_efficient == (point in x_e), point
            assert verdict.boilfp_efficient == (point in x_ep), point
        # The instance's integer rows of scale 1, as dense data.
        columns = range(inst.variable_count)
        a_int = [[dict(row.coeffs).get(j, 0) for j in columns] for row in inst.rows]
        b_int = [row.rhs for row in inst.rows]
        integer_copy = instance(a_int, b_int, inst.criteria, inst.utilities)
        assert validate_instance(inst) == validate_instance(integer_copy)


_tie_coeff = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3))


@st.composite
def _tied_instances(draw):
    """Small instances built to tie. Two or three variables lie in a box
    x_j <= u_j with u_j in 0..3 (all zero: a single-point domain). Up to
    three more rows follow, each a general row, a copy of an earlier row, a
    parallel multiple of one (coincident or shifted by 1), its opposite
    (which makes the row an equation), or a row through a lattice point of
    the box; two such rows through one point make a degenerate vertex.
    Objective coefficients are mostly zero, so points share images; a
    criterion may repeat the first, and the second utility may repeat the
    first or a criterion. Denominators have coefficients >= 0 and a
    constant >= 1, so they stay positive."""
    n = draw(st.integers(2, 3))
    upper = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    b = list(upper)
    vector = st.lists(_tie_coeff, min_size=n, max_size=n)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("general", "copy", "parallel", "opposite", "through")))
        i = draw(st.integers(0, len(a) - 1))
        if kind == "copy":
            row, rhs = a[i], b[i]
        elif kind == "parallel":
            k = draw(st.integers(2, 3))
            row, rhs = [k * v for v in a[i]], k * b[i] + draw(st.integers(0, 1))
        elif kind == "opposite":
            row, rhs = [-v for v in a[i]], -b[i]
        elif kind == "through":
            row = draw(vector)
            rhs = sum(c * draw(st.integers(0, u)) for c, u in zip(row, upper))
        else:
            row, rhs = draw(vector), draw(st.integers(-1, 6))
        a.append(list(row))
        b.append(rhs)

    def objective():
        denominator = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        return ratio(draw(vector), draw(st.integers(-2, 2)), denominator, draw(st.integers(1, 3)))

    criteria = [objective() for _ in range(draw(st.integers(2, 3)))]
    if draw(st.booleans()):
        criteria[-1] = criteria[0]
    first = objective()
    second = draw(st.sampled_from((objective(), first, criteria[0])))
    return instance(a, b, criteria, [first, second])


def test_four_walks_match_the_oracle_on_tied_instances():
    """On instances built to tie (degenerate vertices, equal images,
    single-point domains), every walk of the search returns the oracle's
    intersection, empty or not, and so does every walk on the same instance
    with each row multiplied by 10**12 + 1: the same halfspaces over huge
    coefficients. The drawn cases include empty and non-empty solution
    sets, single-point domains, roots whose optimal vertex is degenerate (a
    basic variable at zero), an infeasible origin (a negative right-hand
    side, so the root's tableau is made feasible by dual pivots) and
    distinct points with equal criteria or utility images."""
    drawn = Counter()
    huge = 10**12 + 1

    @settings(max_examples=120, deadline=None)
    @given(_tied_instances())
    def check(inst):
        domain = enumerate_feasible(inst)
        assume(domain)
        expected = set(efficient_sets(inst)[2])
        scaled = instance(
            [[huge * c for c in row] for row in inst.a_matrix],
            [huge * b for b in inst.b_vector],
            inst.criteria,
            inst.utilities,
        )
        for case in (inst, scaled):
            for strategy in ("dfs", "bfs"):
                for objective in (0, 1):
                    report = run(case, strategy=strategy, objective=objective)
                    assert report.solution_points() == expected, (case, strategy, objective)
        drawn["non-empty" if expected else "empty"] += 1
        drawn["single point"] += len(domain) == 1
        root = solve_lfp(inst.variable_count, inst.rows, inst.utilities[0]).state
        drawn["degenerate root"] += any(row[-1] == 0 for row in root.rows)
        drawn["infeasible origin"] += any(b < 0 for b in inst.b_vector)
        for image in (criteria_image, utility_image):
            drawn["equal images"] += len({image(inst, p) for p in domain}) < len(domain)

    check()
    cases = (
        "non-empty",
        "empty",
        "single point",
        "degenerate root",
        "infeasible origin",
        "equal images",
    )
    assert all(drawn[case] for case in cases), drawn


@pytest.mark.parametrize("seed", [None, 0], ids=["demo", "3x10x5-seed0"])
def test_only_the_root_is_solved_from_scratch(monkeypatch, seed):
    """Every other node is solved once, from its parent's tableau, by a dual
    re-solve. The root's companion maximum is the one other solve from
    scratch. Companion maxima re-solved from an ancestor's state reach
    resolve_after from fractional too, so only the node solves' own calls
    are counted."""
    if seed is None:
        inst = build_demo()
    else:
        inst = generate(GeneratorConfig(num_vars=5, num_constraints=10, num_criteria=3, seed=seed))
    from_scratch = count_calls(monkeypatch, simplex.feasible_tableau)
    from_parent = count_calls(monkeypatch, simplex.resolve_after)
    per_node = []

    def node_solve(*args):
        before = from_parent["fractional"]
        result = solve_lfp(*args)
        per_node.append(from_parent["fractional"] - before)
        return result

    monkeypatch.setattr(branch_cut, "solve_lfp", node_solve)
    report = run(inst)
    assert from_scratch["fractional"] == 2
    assert per_node == [0] + [1] * (report.nodes_processed - 1)
    assert report.nodes_processed > 1


@pytest.mark.parametrize("strategy, objective", [("dfs", 0), ("bfs", 0), ("dfs", 1), ("bfs", 1)])
def test_branch_rows_on_every_node_state_of_the_four_walks(monkeypatch, strategy, objective):
    """On each feasible node state of a walk, the shared branching rule
    returns None exactly at an integral point, and otherwise the rows on
    the first fractional coordinate and its floor."""
    states = []

    def recorded(*args):
        result = solve_lfp(*args)
        if result is not None:
            states.append(result.state)
        return result

    monkeypatch.setattr(branch_cut, "solve_lfp", recorded)
    for seed in range(10):
        inst = generate(GeneratorConfig(num_vars=5, num_constraints=10, num_criteria=3, seed=seed))
        run(inst, strategy=strategy, objective=objective)
    rows = [branch_rows(state, 5) for state in states]
    for state, branch in zip(states, rows):
        assert_dakin_rows(state, 5, branch)
        assert_vertex_read(state, 5)
    assert None in rows and any(rows)


class TestGuards:
    def test_cut_sets_need_an_optimal_state(self, demo):
        # An infeasible node has no state to cut at: its solve returns None.
        rows = constraint_rows(demo.a_matrix, demo.b_vector) + (LinearRow.of({0: 1}, ">=", 9),)
        assert solve_lfp(2, rows, demo.utilities[0]) is None

    def test_cut_sets_need_an_integer_point(self, demo):
        result = solve_lfp(2, constraint_rows(demo.a_matrix, demo.b_vector), demo.utilities[0])
        with pytest.raises(NonIntegerPoint):
            build_cut_sets(result.state, demo)

    def test_a_carried_maximum_over_an_empty_region_is_a_defect(self, demo):
        """Pending rows that empty the region of an ancestor's maximum
        cannot come from the search, whose nodes lie in their ancestors'
        regions, so a re-solve that finds them empty raises. The demo
        region has x0 <= 32/7, so x0 >= 5 empties it; the vertex's own
        image is a rival that does not beat the corner, so the maximum is
        read."""
        rows, (utility, companion) = demo.rows, demo.utilities
        result = solve_lfp(2, rows, utility)
        value, state = maximize(2, rows, companion)
        rival = branch_cut.SolutionRecord((), (), (result.value, evaluate(companion, result.point)))
        known = (value, state, (LinearRow.of({0: 1}, GREATER_EQ, 5),))
        with pytest.raises(InvariantViolated):
            branch_cut.ideal_point_beaten([rival], result, companion, 0, known)

    def test_rejects_unknown_strategy_and_objective(self, demo):
        with pytest.raises(ValueError):
            run(demo, strategy="best-first")
        with pytest.raises(ValueError):
            run(demo, objective=2)

    def test_node_limit(self, demo):
        with pytest.raises(NodeLimitExceeded):
            run(demo, node_limit=3)

    def test_each_instance_is_validated_once_over_the_four_walks(self, monkeypatch):
        """`run` reads the instance's certificate: a loaded instance proves
        it in its first walk only, and a generated one never, since the
        generator proved the same facts."""
        calls = count_calls(monkeypatch, validate_instance)
        generated = generate(GeneratorConfig(num_vars=5, num_constraints=10, num_criteria=3))
        loaded = loads(dumps(generated))
        for inst in (generated, loaded):
            for strategy in ("dfs", "bfs"):
                for objective in (0, 1):
                    run(inst, strategy=strategy, objective=objective)
        assert calls == Counter(validate=1)
        assert loaded.certificate == generated.certificate

    def test_validation_rejects_unbounded_domain(self):
        inst = instance(
            [[-1, 0], [0, -1]],
            [0, 0],
            [ratio([1, 0], 0, [0, 0], 1), ratio([0, 1], 0, [0, 0], 1)],
            [ratio([1, 1], 0, [0, 0], 1), ratio([-1, 1], 0, [0, 0], 1)],
        )
        with pytest.raises(AssumptionViolated):
            run(inst)
