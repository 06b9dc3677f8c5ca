import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from effset import branch_cut, model, simplex
from effset.efficiency import _level_row, _membership_program, is_in_solution_set
from effset.errors import InfeasiblePoint
from effset.generator import GeneratorConfig, generate
from effset.instances import dumps, loads
from effset.milp import solve_milp
from effset.model import (
    AffineForm,
    FractionalObjective,
    LinearRow,
    criteria_image,
    dominates,
    evaluate,
    instance,
    is_feasible,
    ratio,
    utility_image,
)
from effset.oracle import efficient_sets, enumerate_feasible
from effset.simplex import GREATER_EQ

from conftest import (
    DEMO_CRITERIA_EFFICIENT,
    DEMO_FEASIBLE,
    DEMO_SOLUTION_SET,
    DEMO_UTILITY_EFFICIENT,
    count_calls,
)


class TestDemoVerdicts:
    def test_solution_point(self, demo):
        verdict = is_in_solution_set(demo, (4, 1))
        assert verdict.moilfp_efficient and verdict.boilfp_efficient
        assert verdict.in_solution_set
        assert verdict.witness is None

    def test_criteria_efficient_only(self, demo):
        verdict = is_in_solution_set(demo, (3, 0))
        assert verdict.moilfp_efficient
        assert not verdict.boilfp_efficient
        assert not verdict.in_solution_set
        assert verdict.witness == (4, 1)

    def test_neither_efficient(self, demo):
        verdict = is_in_solution_set(demo, (4, 0))
        assert not verdict.moilfp_efficient
        assert not verdict.boilfp_efficient
        assert verdict.witness == (4, 1)

    def test_every_feasible_point_classified(self, demo):
        for p in sorted(DEMO_FEASIBLE):
            verdict = is_in_solution_set(demo, p)
            assert verdict.moilfp_efficient == (p in DEMO_CRITERIA_EFFICIENT), p
            assert verdict.boilfp_efficient == (p in DEMO_UTILITY_EFFICIENT), p
            assert verdict.in_solution_set == (p in DEMO_SOLUTION_SET), p

    def test_witness_really_dominates(self, demo):
        for p in sorted(DEMO_FEASIBLE):
            verdict = is_in_solution_set(demo, p)
            w = verdict.witness
            if w is None:
                continue
            assert is_feasible(demo, w)
            if not verdict.moilfp_efficient:
                assert dominates(criteria_image(demo, w), criteria_image(demo, p))
            else:
                assert dominates(utility_image(demo, w), utility_image(demo, p))


def mm_beaten(inst, point):
    """Whether the criteria dominance MILP at an integer feasible point has
    a point above the candidate's value 0."""
    return solve_milp(_membership_program(inst, point, inst.criteria), 0) is not None


def t2_beaten(inst, point):
    """Whether the utility dominance MILP at an integer feasible point has
    a point above the candidate's value 0."""
    return solve_milp(_membership_program(inst, point, inst.utilities), 0) is not None


class TestMembershipPrograms:
    def test_dominance_optimum_is_zero_at_efficient_point(self, demo):
        assert not mm_beaten(demo, (4, 1))
        assert not t2_beaten(demo, (4, 1))
        assert not mm_beaten(demo, (3, 0))

    def test_dominance_optimum_positive_at_dominated_point(self, demo):
        assert t2_beaten(demo, (3, 0))
        assert mm_beaten(demo, (4, 0))

    def test_rejects_infeasible_point(self, demo):
        """Both tests' one entry point checks the point before either MILP."""
        with pytest.raises(InfeasiblePoint):
            is_in_solution_set(demo, (0, 1))
        with pytest.raises(InfeasiblePoint):
            is_in_solution_set(demo, (0, 1), decide=True)

    def test_rejects_fractional_point(self, demo):
        with pytest.raises(InfeasiblePoint):
            is_in_solution_set(demo, (Fraction(1, 2), 0))


@pytest.mark.parametrize("seed", range(4))
def test_membership_agrees_with_exhaustive_pareto(seed):
    cfg = GeneratorConfig(
        num_vars=2,
        num_constraints=2,
        num_criteria=2,
        seed=seed,
        b_range=(4, 9),
        a_range=(2, 6),
    )
    inst = generate(cfg)
    x_e, x_ep, both = efficient_sets(inst)
    for p in enumerate_feasible(inst):
        verdict = is_in_solution_set(inst, p)
        assert verdict.moilfp_efficient == (p in x_e), (seed, p)
        assert verdict.boilfp_efficient == (p in x_ep), (seed, p)
        assert verdict.in_solution_set == (p in both), (seed, p)


def test_the_search_entry_point_decides_as_both_tests_do(monkeypatch):
    """is_in_solution_set(..., decide=True), the search's entry point, gives
    the same solution-set verdict and witness as both tests on every
    feasible point, and runs the utility MILP only when the criteria MILP
    finds no dominating point."""
    skipped = 0
    for seed in range(5):
        inst = generate(GeneratorConfig(num_vars=5, num_constraints=10, num_criteria=3, seed=seed))
        for p in enumerate_feasible(inst):
            full = is_in_solution_set(inst, p)
            milps = count_calls(monkeypatch, solve_milp)
            decided = is_in_solution_set(inst, p, decide=True)
            monkeypatch.undo()
            assert decided.in_solution_set == full.in_solution_set, (seed, p)
            assert decided.witness == full.witness, (seed, p)
            assert decided.moilfp_efficient == full.moilfp_efficient, (seed, p)
            if full.moilfp_efficient:
                assert decided.boilfp_efficient == full.boilfp_efficient, (seed, p)
                assert milps["efficiency"] == 2
            else:
                assert decided.boilfp_efficient is None
                assert milps["efficiency"] == 1
                skipped += 1
    assert skipped > 0


# Level-row data: small rationals, zeros, and values around 10**12.
_entry = st.one_of(
    st.just(Fraction(0)),
    st.fractions(-50, 50, max_denominator=12),
    st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**6)),
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(_entry, min_size=n, max_size=n),
            _entry,
            st.lists(_entry, min_size=n, max_size=n),
            _entry,
            st.lists(st.integers(0, 20), min_size=n, max_size=n),
        )
    )
)
def test_a_level_row_in_integers_is_the_rational_row_over_its_lcm(data):
    """_level_row equals the rational construction c - Z d >= Z d0 - c0,
    entry for entry once divided by its scale, and its scale is the lcm of
    that row's denominators, so the written tableau is the same."""
    c, c0, d, d0, point = data
    obj = FractionalObjective(AffineForm(tuple(c), c0), AffineForm(tuple(d), d0))
    assume(obj.denominator.at(point) != 0)
    level = evaluate(obj, point)
    coeffs = [cj - level * dj for cj, dj in zip(c, d)]
    rhs = level * d0 - c0
    row = _level_row(obj, tuple(point))
    assert row.relation == GREATER_EQ
    written = dict(row.coeffs)
    assert [Fraction(written.get(j, 0), row.scale) for j in range(len(c))] == coeffs
    assert Fraction(row.rhs, row.scale) == rhs
    assert row.scale == math.lcm(rhs.denominator, *(v.denominator for v in coeffs))
    assert row == LinearRow.of(coeffs, GREATER_EQ, rhs)


def _rational_instance():
    """Rational data everywhere: rows, right-hand sides and both objective
    families; denominators have coefficients >= 0 and constants > 0."""
    return instance(
        [["3/2", "2/3"], ["-4/7", "5/3"], ["1", "-1/2"]],
        ["15/2", "11/3", "5/2"],
        [
            ratio(["1/2", "4/7"], "3/5", ["1/3", "2/9"], "5/4"),
            ratio(["-3/4", "1"], "-1/6", ["0", "1/5"], "7/3"),
        ],
        [
            ratio(["4/7", "3/2"], "-4/7", ["1/4", "1/6"], "2/5"),
            ratio(["5/6", "2/7"], "-1", ["2/3", "1/9"], "3/2"),
        ],
    )


def test_membership_on_rational_data_agrees_with_the_oracle():
    """Every feasible point's verdict agrees with the exhaustive sets, and
    each witness is a feasible point that dominates it in the family whose
    test rejected it."""
    inst = _rational_instance()
    x_e, x_ep, _ = efficient_sets(inst)
    kinds = set()
    for p in enumerate_feasible(inst):
        verdict = is_in_solution_set(inst, p)
        mo, bo = p in x_e, p in x_ep
        assert (verdict.moilfp_efficient, verdict.boilfp_efficient) == (mo, bo), p
        kinds.add((mo, bo))
        if mo and bo:
            assert verdict.witness is None, p
            continue
        image = criteria_image if not mo else utility_image
        w = verdict.witness
        assert is_feasible(inst, w) and dominates(image(inst, w), image(inst, p)), p
    # Both tests reject some point, and some point passes both.
    assert {(False, False), (True, False), (True, True)} <= kinds


def test_an_instance_builds_its_constraint_rows_once(monkeypatch):
    """A generated instance keeps the rows its generator built and
    presolved; an instance read from a file builds and presolves them at
    the first read. Then membership on every feasible point, and one search
    (validation, root and every membership call), build none again; each
    objective form keeps its integer data."""
    cfg = GeneratorConfig(num_vars=5, num_constraints=10, num_criteria=3, seed=0)
    builds = count_calls(monkeypatch, model.constraint_rows)
    presolves = count_calls(monkeypatch, simplex.presolve)
    inst = generate(cfg)
    points = enumerate_feasible(inst)
    for p in points:
        is_in_solution_set(inst, p)
    assert len(points) > 1
    assert builds == Counter(generator=1) and presolves == Counter(generator=1)
    for obj in (*inst.criteria, *inst.utilities):
        assert "scaled" in vars(obj.numerator) and "scaled" in vars(obj.denominator)

    searched = loads(dumps(inst))
    builds.clear()
    presolves.clear()
    report = branch_cut.run(searched)
    assert report.candidates[branch_cut.MILP] > 0
    assert builds == Counter(model=1) and presolves == Counter(simplex=1)
