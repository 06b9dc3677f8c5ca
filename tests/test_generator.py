import random
from collections import Counter

import pytest

from effset import generator, simplex, validate
from effset.errors import GenerationFailed
from effset.generator import GeneratorConfig, generate
from effset.instances import dumps, loads
from effset.validate import validate_instance

from conftest import count_calls


def cfg(**overrides):
    base = dict(num_vars=3, num_constraints=2, num_criteria=3, seed=7)
    base.update(overrides)
    return GeneratorConfig(**base)


class TestConfig:
    def test_requires_two_criteria(self):
        with pytest.raises(ValueError):
            cfg(num_criteria=1)

    def test_requires_variables_and_constraints(self):
        with pytest.raises(ValueError):
            cfg(num_vars=0)
        with pytest.raises(ValueError):
            cfg(num_constraints=0)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            cfg(b_range=(10, 5))


class TestGenerate:
    def test_deterministic_per_seed(self):
        assert generate(cfg()) == generate(cfg())

    def test_seeds_differ(self):
        assert generate(cfg(seed=0)) != generate(cfg(seed=1))

    def test_shape(self):
        inst = generate(cfg())
        assert inst.variable_count == 3
        assert len(inst.a_matrix) == 2
        assert len(inst.criteria) == 3
        assert len(inst.utilities) == 2

    def test_data_within_ranges(self):
        inst = generate(cfg(seed=11))
        assert all(1 <= v <= 30 for row in inst.a_matrix for v in row)
        assert all(50 <= v <= 100 for v in inst.b_vector)
        for obj in inst.criteria + inst.utilities:
            assert all(-10 <= v <= 10 for v in obj.numerator.coeffs)
            assert -10 <= obj.numerator.constant <= 10
            assert all(0 <= v <= 10 for v in obj.denominator.coeffs)
            assert 0 <= obj.denominator.constant <= 10

    @pytest.mark.parametrize("seed", range(5))
    def test_generated_instances_validate(self, seed):
        inst = generate(cfg(seed=seed))
        certificate = validate_instance(inst)
        assert all(m > 0 for m in certificate.denominator_minima)
        assert certificate.integer_witness is not None

    @pytest.mark.parametrize(
        "size, seeds", [((3, 10, 5), 30), ((3, 10, 10), 30), ((2, 4, 3), 30), ((3, 10, 30), 5)]
    )
    def test_certificate_is_the_one_validation_proves(self, size, seeds):
        """generate fills each instance's certificate from its own solves;
        it is the one validate_instance proves on the same data read back."""
        r, m, n = size
        for seed in range(seeds):
            inst = generate(cfg(num_vars=n, num_constraints=m, num_criteria=r, seed=seed))
            assert "certificate" in vars(inst)
            assert inst.certificate == validate_instance(loads(dumps(inst))), seed

    def test_each_denominator_solved_once(self, monkeypatch):
        """One presolve of the rows (its feasible tableau and its one
        least-slack LP at this seed, see test_validate.py's
        test_presolve_lp_count), then one feasible tableau over them, from
        which the k+2 denominator LPs and the relaxation LP are optimized,
        then the witness MILP."""
        presolves = count_calls(monkeypatch, simplex.presolve)
        minima = count_calls(monkeypatch, validate.denominator_minimum)
        tableaus = count_calls(monkeypatch, simplex.feasible_tableau)
        optimized = count_calls(monkeypatch, simplex.optimize)
        lps = count_calls(monkeypatch, simplex.solve_lp)
        inst = generate(cfg(num_vars=5, num_constraints=10, num_criteria=3, seed=0))
        k = len(inst.criteria)
        assert presolves == Counter(generator=1)
        assert sum(minima.values()) == k + 2
        assert set(lps) == {"milp"} and lps["milp"] >= 1
        # The others are the presolve's and the witness MILP's root solves.
        assert tableaus == Counter(validate=1, simplex=1 + lps["milp"])
        assert optimized == Counter(validate=k + 2 + 1, simplex=1 + lps["milp"])

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_are_those_the_instance_builds(self, seed):
        """The rows a generated instance keeps are the ones the same data
        read from a file builds and presolves, implied marks included."""
        inst = generate(cfg(num_vars=5, num_constraints=10, num_criteria=3, seed=seed))
        loaded = loads(dumps(inst))
        assert "rows" not in vars(loaded)
        assert [(r, r.implied) for r in inst.rows] == [(r, r.implied) for r in loaded.rows]

    def test_positive_denominator_unreachable(self):
        with pytest.raises(GenerationFailed):
            generate(cfg(denominator_range=(0, 0), max_attempts=3))

    def test_unbounded_region_exhausts_attempts(self):
        with pytest.raises(GenerationFailed):
            generate(cfg(a_range=(0, 0), max_attempts=3))

    def test_no_constant_redrawn_for_a_denominator_without_minimum(self, monkeypatch):
        """With a = 0 the region is unbounded, so a denominator with a
        negative coefficient has no minimum and no constant can make it
        positive: the objective fails with no redraw of its constant, which
        is the only draw from (1, 1), the positive part of (-1, 1)."""
        minima, redraws = [], []
        real_minimum, real_randint = validate.denominator_minimum, random.Random.randint

        def minimum(*args):
            minima.append(real_minimum(*args))
            return minima[-1]

        def randint(self, lo, hi):
            if (lo, hi) == (1, 1) and minima[-1] is None:
                redraws.append(lo)
            return real_randint(self, lo, hi)

        monkeypatch.setattr(generator, "denominator_minimum", minimum)
        monkeypatch.setattr(random.Random, "randint", randint)
        config = GeneratorConfig(
            num_vars=2,
            num_constraints=1,
            num_criteria=2,
            a_range=(0, 0),
            denominator_range=(-1, 1),
            max_attempts=3,
        )
        with pytest.raises(GenerationFailed):
            generate(config)
        assert None in minima
        assert redraws == []
