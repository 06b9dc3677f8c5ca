import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effset import simplex
from effset.errors import AssumptionViolated
from effset.generator import GeneratorConfig, generate
from effset.model import constraint_rows, instance, is_feasible, ratio
from effset.simplex import LinearProgram
from effset.validate import integer_witness, validate_instance

from conftest import UNBOUNDED, count_calls, outcome


def one_var(a, b, den_coeff=0, den_const=1):
    objectives = [
        ratio([1], 0, [den_coeff], den_const),
        ratio([-1], 0, [0], 1),
    ]
    return instance([[a]], [b], objectives, objectives)


def test_demo_certificate(demo):
    cert = validate_instance(demo)
    assert cert.denominator_minima == (
        Fraction(6, 7),
        Fraction(1),
        Fraction(1),
        Fraction(1),
        Fraction(2),
    )
    assert is_feasible(demo, cert.integer_witness)
    assert all(isinstance(v, int) for v in cert.integer_witness)


def test_empty_relaxation(demo):
    with pytest.raises(AssumptionViolated) as info:
        validate_instance(one_var(1, -1))
    assert info.value.reason == "empty-domain"


def test_unbounded_relaxation():
    with pytest.raises(AssumptionViolated) as info:
        validate_instance(one_var(-1, 0))
    assert info.value.reason == "unbounded"


def test_unbounded_in_a_later_variable_only():
    # x0 <= 2 bounds x0; nothing bounds x1.
    objectives = [ratio([1, 0], 0, [0, 0], 1), ratio([0, 1], 0, [0, 0], 1)]
    with pytest.raises(AssumptionViolated) as info:
        validate_instance(instance([[1, 0]], [2], objectives, objectives))
    assert info.value.reason == "unbounded"
    assert "unbounded" in str(info.value)


def test_sign_changing_denominator():
    with pytest.raises(AssumptionViolated) as info:
        validate_instance(one_var(1, 2, den_coeff=1, den_const=-1))
    assert info.value.reason == "denominator"


def test_no_integer_point():
    # 1/3 <= x <= 2/3: nonempty relaxation, no lattice point.
    objectives = [ratio([1], 0, [0], 1), ratio([-1], 0, [0], 1)]
    inst = instance([[3], [-3]], [2, -1], objectives, objectives)
    with pytest.raises(AssumptionViolated) as info:
        validate_instance(inst)
    assert info.value.reason == "empty-domain"


def test_denominator_checked_before_integer_point():
    # 1/3 <= x <= 2/3 has no lattice point, and x - 1/2 changes sign on it:
    # the denominator is reported, because it is checked first.
    objectives = [ratio([1], 0, [1], Fraction(-1, 2)), ratio([-1], 0, [0], 1)]
    inst = instance([[3], [-3]], [2, -1], objectives, objectives)
    with pytest.raises(AssumptionViolated) as info:
        validate_instance(inst)
    assert info.value.reason == "denominator"


def test_lp_count(monkeypatch):
    """One feasible tableau, from which the relaxation LP and one LP per
    denominator are optimized, then the witness MILP's node LPs; nothing
    else. The rows are read first: their presolve runs at the first read
    (here inside `generate`) and is counted in test_presolve_lp_count."""
    inst = generate(GeneratorConfig(num_vars=5, num_constraints=10, num_criteria=3, seed=0))
    inst.rows
    tableaus = count_calls(monkeypatch, simplex.feasible_tableau)
    optimized = count_calls(monkeypatch, simplex.optimize)
    lps = count_calls(monkeypatch, simplex.solve_lp)
    validate_instance(inst)
    assert set(lps) == {"milp"} and lps["milp"] >= 1
    # The others are the witness MILP's root solves, inside solve_lp.
    assert tableaus == Counter(validate=1, simplex=lps["milp"])
    assert optimized == Counter(validate=1 + len(inst.criteria) + 2, simplex=lps["milp"])


def test_the_witness_milp_stops_at_its_first_point(monkeypatch):
    """Over x0 + x1 >= 3/2 the zero objective's root vertex is (3/2, 0),
    whose floor child x0 <= 1 reaches (1, 1/2) with x0 >= 2 still on the
    stack; of that node's children y <= 0 is empty and y >= 1 gives the
    first integer point (1, 1). It is returned after three re-solves, and
    the sibling x0 >= 2 is never solved."""
    rows = constraint_rows([[-2, -2], [1, 0], [0, 1]], [-3, 5, 5])
    from_parent = count_calls(monkeypatch, simplex.resolve_after)
    assert integer_witness(rows, 2) == (1, 1)
    assert from_parent["milp"] == 3


@pytest.mark.parametrize("n, lps, implied", [(5, 1, 3), (10, 3, 2), (30, 2, 0)])
def test_presolve_lp_count(monkeypatch, n, lps, implied):
    """The presolve of 3x10xN seed 0 makes one feasible tableau and
    optimizes one least-slack LP per row its certificates leave undecided."""
    inst = generate(GeneratorConfig(num_vars=n, num_constraints=10, num_criteria=3, seed=0))
    rows = constraint_rows(inst.a_matrix, inst.b_vector)
    tableaus = count_calls(monkeypatch, simplex.feasible_tableau)
    optimized = count_calls(monkeypatch, simplex.optimize)
    marked = simplex.presolve(n, rows)
    assert tableaus == Counter(simplex=1) and optimized == Counter(simplex=lps)
    assert sum(row.implied for row in marked) == implied


@st.composite
def tiny_instances(draw):
    """n, m <= 3 with small coefficients, zeros included: empty, single-point
    and unbounded relaxations, relaxations with no lattice point, and
    denominators that change sign all occur."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    coef = st.integers(-3, 3)
    a = [[draw(coef) for _ in range(n)] for _ in range(m)]
    b = [draw(st.integers(-3, 6)) for _ in range(m)]
    objectives = [
        ratio([0] * n, 1, [draw(coef) for _ in range(n)], draw(st.integers(-3, 6)))
        for _ in range(4)
    ]
    return instance(a, b, objectives[:2], objectives[2:])


def reference_reason(inst) -> str | None:
    """The verdict validate_instance must reach, in the same order of
    checks, from solves that share nothing: each variable's maximum and
    each denominator's minimum by its own `solve_lp` from scratch, then
    the literal scan of the lattice box those maxima span."""
    n = inst.variable_count
    rows = constraint_rows(inst.a_matrix, inst.b_vector)
    tops = []
    for j in range(n):
        state = outcome(simplex.solve_lp, LinearProgram.of(n, {j: 1}, rows))
        if state is None:
            return "empty-domain"
        if state is UNBOUNDED:
            return "unbounded"
        tops.append(math.floor(state.structural_point(n)[j]))
    for obj in inst.criteria + inst.utilities:
        den = obj.denominator
        state = simplex.solve_lp(LinearProgram.of(n, [-c for c in den.coeffs], rows))
        if den.at(state.structural_point(n)) <= 0:
            return "denominator"
    box = itertools.product(*(range(top + 1) for top in tops))
    return None if any(is_feasible(inst, point) for point in box) else "empty-domain"


@settings(max_examples=300, deadline=None)
@given(tiny_instances())
def test_agrees_with_oracle_reference(inst):
    expected = reference_reason(inst)
    try:
        cert = validate_instance(inst)
    except AssumptionViolated as exc:
        assert exc.reason == expected
    else:
        assert expected is None
        assert is_feasible(inst, cert.integer_witness)
        assert all(m > 0 for m in cert.denominator_minima)
