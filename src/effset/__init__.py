"""Exact solver for the set of integer points simultaneously efficient
for a family of ratio criteria and for a pair of ratio utilities.

The pieces compose bottom-up: an exact rational simplex (`simplex`), a
ratio-objective pivot solver (`fractional`), a small branch-and-bound
integer solver (`milp`) feeding the efficiency membership tests
(`efficiency`), and on top the branch-and-cut search (`branch_cut`) that
enumerates the whole solution set. `oracle` brute-forces small instances
for cross-checking, `generator`/`instances`/`bench`/`cli` are the
surrounding toolkit.
"""

from .branch_cut import SearchReport, SolutionRecord, run
from .efficiency import EfficiencyVerdict, is_in_solution_set
from .errors import (
    AssumptionViolated,
    EffsetError,
    EnumerationBudgetExceeded,
    GenerationFailed,
    InvariantViolated,
    ParseError,
    UnboundedDomain,
)
from .generator import GeneratorConfig, generate
from .instances import dumps, load, loads, save
from .model import (
    AffineForm,
    FractionalObjective,
    ProblemInstance,
    evaluate,
    instance,
    ratio,
)
from .oracle import efficient_sets, enumerate_feasible
from .validate import InstanceCertificate, validate_instance

__all__ = [
    "AffineForm",
    "AssumptionViolated",
    "EffsetError",
    "EfficiencyVerdict",
    "EnumerationBudgetExceeded",
    "FractionalObjective",
    "GenerationFailed",
    "GeneratorConfig",
    "InstanceCertificate",
    "InvariantViolated",
    "ParseError",
    "ProblemInstance",
    "SearchReport",
    "SolutionRecord",
    "UnboundedDomain",
    "dumps",
    "efficient_sets",
    "enumerate_feasible",
    "evaluate",
    "generate",
    "instance",
    "is_in_solution_set",
    "load",
    "loads",
    "ratio",
    "run",
    "save",
    "validate_instance",
]

__version__ = "0.1.0"
