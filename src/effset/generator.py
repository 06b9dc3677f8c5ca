"""Random instance generation.

Draws integer data with rejection fixes so every produced instance meets
the solver's assumptions: technology coefficients are strictly positive
(bounding the region), right-hand sides are comfortably positive (keeping
the origin feasible), and each denominator constant is redrawn from the
positive part of its range until the denominator stays positive over the
whole relaxation.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import AssumptionViolated, GenerationFailed
from .model import AffineForm, FractionalObjective, ProblemInstance, constraint_rows, instance
from .simplex import SimplexState, presolve
from .validate import (
    InstanceCertificate,
    check_relaxation,
    denominator_minimum,
    feasible_start,
    integer_witness,
)


@dataclass(frozen=True)
class GeneratorConfig:
    num_vars: int
    num_constraints: int
    num_criteria: int
    seed: int = 0
    b_range: tuple[int, int] = (50, 100)
    a_range: tuple[int, int] = (1, 30)
    numerator_range: tuple[int, int] = (-10, 10)
    denominator_range: tuple[int, int] = (0, 10)
    max_attempts: int = 100

    def __post_init__(self) -> None:
        if self.num_vars < 1 or self.num_constraints < 1:
            raise ValueError("need at least one variable and one constraint")
        if self.num_criteria < 2:
            raise ValueError("need at least two ranking criteria")
        for name in ("b_range", "a_range", "numerator_range", "denominator_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} is empty: ({lo}, {hi})")


def _draw_objective(
    rng: random.Random, cfg: GeneratorConfig, start: SimplexState | None
) -> tuple[FractionalObjective, Fraction]:
    """An objective whose denominator stays positive over the region, and
    that denominator's minimum there."""
    num_lo, num_hi = cfg.numerator_range
    den_lo, den_hi = cfg.denominator_range
    numerator = AffineForm.of(
        [rng.randint(num_lo, num_hi) for _ in range(cfg.num_vars)],
        rng.randint(num_lo, num_hi),
    )
    den_coeffs = [rng.randint(den_lo, den_hi) for _ in range(cfg.num_vars)]
    constant = rng.randint(den_lo, den_hi)
    # Redraws change only the constant, so the linear part's minimum is
    # solved once.
    linear = denominator_minimum(start, AffineForm.of(den_coeffs))
    if linear is None:
        raise GenerationFailed("the denominator has no minimum over the region")
    positive_lo = max(den_lo, 1)
    for _ in range(cfg.max_attempts):
        minimum = linear[0] + constant
        if minimum > 0:
            return FractionalObjective(numerator, AffineForm.of(den_coeffs, constant)), minimum
        if positive_lo > den_hi:
            break
        constant = rng.randint(positive_lo, den_hi)
    raise GenerationFailed("could not draw a denominator positive over the region")


def generate(cfg: GeneratorConfig) -> ProblemInstance:
    """Deterministic for a given config: the same seed always yields the
    same instance."""
    rng = random.Random(cfg.seed)
    last_error: Exception | None = None
    for _ in range(cfg.max_attempts):
        a = [
            [rng.randint(*cfg.a_range) for _ in range(cfg.num_vars)]
            for _ in range(cfg.num_constraints)
        ]
        b = [rng.randint(*cfg.b_range) for _ in range(cfg.num_constraints)]
        # The instance's rows (`ProblemInstance.rows`), presolved once: the
        # attempt's denominator and relaxation LPs all optimize from this
        # one feasible tableau over them.
        rows = presolve(cfg.num_vars, constraint_rows(a, b))
        start = feasible_start(rows, cfg.num_vars)
        try:
            # Criteria first, then the two utilities.
            drawn = [_draw_objective(rng, cfg, start) for _ in range(cfg.num_criteria + 2)]
            # _draw_objective proved each denominator positive over these rows.
            check_relaxation(start, cfg.num_vars)
            witness = integer_witness(rows, cfg.num_vars)
            objectives, minima = zip(*drawn)
            inst = instance(a, b, objectives[:-2], objectives[-2:])
            # These are the rows the instance would build from a and b, and
            # the certificate `validate_instance` would prove over them:
            # fill the cached properties with them.
            vars(inst)["rows"] = rows
            vars(inst)["certificate"] = InstanceCertificate(minima, witness)
            return inst
        except (GenerationFailed, AssumptionViolated) as exc:
            last_error = exc
    raise GenerationFailed(f"no valid instance after {cfg.max_attempts} attempts: {last_error}")
