"""Walk-identity pins for the simplex engine.

The search's answers depend on more than the solution set: node counts,
the final basis at degenerate optima (which decides H and H') and the
witnesses of the membership MILPs all follow from the exact pivot sequence
Bland's rule picks. These digests were computed with the Fraction-tableau
engine that preceded the integer-preserving one, so any change of engine
that moves a single Bland decision fails here.
"""
import hashlib

import pytest

from effset import branch_cut, oracle
from effset.efficiency import is_in_solution_set
from effset.generator import GeneratorConfig, generate


def _instance(seed):
    return generate(GeneratorConfig(num_vars=5, num_constraints=10, num_criteria=3, seed=seed))


def _text(values):
    return None if values is None else tuple(str(v) for v in values)


def _digest(items) -> str:
    return hashlib.sha256(repr(list(items)).encode()).hexdigest()


def walk_digest(report) -> str:
    return _digest(
        (
            rec.node_id,
            rec.action,
            _text(rec.point),
            None if rec.value is None else str(rec.value),
            None if rec.h is None else tuple(sorted(rec.h)),
            None if rec.hprime is None else tuple(sorted(rec.hprime)),
        )
        for rec in report.trace
    )


def membership_digest(inst) -> str:
    verdicts = []
    for point in oracle.enumerate_feasible(inst):
        v = is_in_solution_set(inst, point)
        verdicts.append((point, v.moilfp_efficient, v.boilfp_efficient, v.witness))
    return _digest(verdicts)


# seed: (nodes_processed, SHA-256 of the trace tuples)
WALK_PINS = {
    0: (32, "3e8eab5e69a0f6d5923d1cc7595124e773d754e5cc7274f8a49a0c445faf7536"),
    1: (74, "f0b776484f70191fcfe4df52d2451924567fd24f111f3e57ffcf944cc0325c69"),
    2: (57, "6cc8f2252c9464b5b08993575d94dde0834ad87ea9061012b71fef3567ac151c"),
    3: (51, "994568e77b79f928810ea0e05a2159eba2661295f19b76d2081dbda8fa35b8e8"),
    4: (23, "c353764a747e9ea2e7026b83a47a4b94e0deb33a71fdf8d587f2591363ccc34b"),
    5: (24, "72471ccd52d15994be729dea79cfe5c8aa6e7c6f77ef41bd9bf2c0ba74a41316"),
    6: (43, "6793ad02f70cef9fffba93b7dff7b5264690ba64f05be044e79967da65fb90f3"),
    7: (18, "621f88cde5e67c86b4e37baa5da659ad0713588a90f77ae5e4e66029db892178"),
    8: (43, "22c8f6e734727e67ac9bf12669429f77a7e39d13268512f88018cf6be58eb4b7"),
    9: (14, "d1930e51bf01f9af05229c8fb73b4a6322230ae33f7dc26daf7757ed48b9bbee"),
}

# seed: SHA-256 of (point, criteria verdict, utility verdict, witness) over
# every feasible point, in enumeration order
MEMBERSHIP_PINS = {
    0: "a2afa46a57e5178b69c19fbc63217d269b21347a43ad1622c54b8ce52572dca5",
    1: "b5db3a42f092106bed82f6b7b2dec68d48d3eff7a8fc78221aaf5779099d8d54",
}


@pytest.mark.parametrize("seed", sorted(WALK_PINS))
def test_search_walk_is_pinned(seed):
    report = branch_cut.run(_instance(seed))
    assert (report.nodes_processed, walk_digest(report)) == WALK_PINS[seed]


@pytest.mark.parametrize("seed", sorted(MEMBERSHIP_PINS))
def test_membership_verdicts_are_pinned(seed):
    assert membership_digest(_instance(seed)) == MEMBERSHIP_PINS[seed]
