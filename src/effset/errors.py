"""Exception types shared across the solver stack."""


class EffsetError(Exception):
    """Base class for every error raised by this package."""


class ZeroDenominator(EffsetError):
    """A ratio objective was evaluated where its denominator vanishes."""


class LengthMismatch(EffsetError):
    """Vectors of different lengths were combined."""


class NotOptimal(EffsetError):
    """A basis is not optimal for the cost a re-solve prices: a dual
    re-solve's first cost row has a positive entry, or its parent state
    was solved for another objective."""


class InvariantViolated(EffsetError):
    """An internal invariant of the solvers failed: a defect in this
    package, never a property of the input."""


class NodeLimitExceeded(EffsetError):
    """A search (`branch_cut.run`) processed more nodes than its
    node_limit allows."""


class UnboundedDomain(EffsetError):
    """The feasible region admits an unbounded improving ray; the model
    requires a bounded polytope."""


class NonIntegerPoint(EffsetError):
    """Cut construction needs an integer optimum but the point is fractional."""


class InfeasiblePoint(EffsetError):
    """A membership test was asked about a point outside the feasible set."""


class AssumptionViolated(EffsetError):
    """Instance data breaks a model assumption. `reason` is one of
    "empty-domain" (no feasible integer point), "unbounded", or
    "denominator" (a denominator is not strictly positive)."""

    def __init__(self, message: str, reason: str = "denominator"):
        self.reason = reason
        super().__init__(message)


class GenerationFailed(EffsetError):
    """The random generator exhausted its retry budget."""


class EnumerationBudgetExceeded(EffsetError):
    """Lattice enumeration would visit more candidates than the budget allows."""


class ParseError(EffsetError):
    """An instance file cannot be read or is malformed; carries its line number if any."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
