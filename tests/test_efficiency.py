from fractions import Fraction

import pytest

from effset.efficiency import build_mm, build_t2, is_in_solution_set
from effset.errors import InfeasiblePoint
from effset.generator import GeneratorConfig, generate
from effset.milp import solve_milp
from effset.model import criteria_image, dominates, is_feasible, utility_image
from effset.oracle import efficient_sets, enumerate_feasible

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


class TestMembershipPrograms:
    def test_dominance_optimum_is_zero_at_efficient_point(self, demo):
        assert solve_milp(build_mm(demo, (4, 1))).value == 0
        assert solve_milp(build_t2(demo, (4, 1))).value == 0
        assert solve_milp(build_mm(demo, (3, 0))).value == 0

    def test_dominance_optimum_positive_at_dominated_point(self, demo):
        assert solve_milp(build_t2(demo, (3, 0))).value > 0
        assert solve_milp(build_mm(demo, (4, 0))).value > 0

    def test_rejects_infeasible_point(self, demo):
        with pytest.raises(InfeasiblePoint):
            build_mm(demo, (0, 1))
        with pytest.raises(InfeasiblePoint):
            build_t2(demo, (0, 1))

    def test_rejects_fractional_point(self, demo):
        with pytest.raises(InfeasiblePoint):
            build_mm(demo, (Fraction(1, 2), 0))


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
